"""Command-line entry point: ``python -m repro.harness`` / ``repro-harness``.

Examples::

    python -m repro.harness                  # run everything
    python -m repro.harness F1 F5 F8         # selected experiments
    python -m repro.harness F8 --scale 0.5
    python -m repro.harness F7 F8 --jobs 4   # parallel cells
    python -m repro.harness F1 --no-cache    # force recomputation
    python -m repro.harness experiments list # registry + descriptions
    python -m repro.harness table run F5 --reps 3   # stats tables
    python -m repro.harness table show A4    # factor grid, no execution
    python -m repro.harness table export F8 --format csv --output f8.csv
    python -m repro.harness runs             # summarize recorded runs
    python -m repro.harness runs --last 1 --json
    python -m repro.harness cache stats      # on-disk cache usage
    python -m repro.harness cache clear      # drop stage artifacts
    python -m repro.harness cache gc --max-bytes 100000000   # bound it
    python -m repro.harness F6 F7 --obs      # collect telemetry
    python -m repro.harness F6 --obs --profile   # + cProfile pstats
    python -m repro.harness obs report last  # render stored telemetry
    python -m repro.harness obs timeline last --label mergesort
    python -m repro.harness obs hotspots last --top 20
    python -m repro.harness obs trend --pass deadness
    python -m repro.harness obs regress --threshold 2.0  # CI gate

Experiment and run-table runs execute through
:mod:`repro.harness.engine` (staged on-disk cache + optional
multiprocessing) and each invocation appends one record (wall time per
experiment, per-stage cache hits/misses, instruction counts, host
info, kernel-pass timing) to the run log
``<cache-dir>/runs/history.jsonl`` — see :mod:`repro.harness.runmeta`.
``runs``, ``obs report``, ``obs trend`` and ``obs regress`` all read
that log.

With ``--obs`` (or ``REPRO_OBS=1``) the run additionally collects
telemetry — hierarchical spans, pipeline occupancy timelines, predictor
introspection — stored under
``<cache-dir>/runs/obs-<run_id>/`` and rendered by the ``obs``
subcommands.  See :mod:`repro.obs` and ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.engine import (EngineConfig, cache_dir_from_env,
                                  config_from_env, configure)
from repro.harness.experiments import ALL_EXPERIMENTS, run_experiment


def _positive_float(name: str, zero: bool = False):
    """An argparse type for strictly positive finite floats (with
    *zero*, also 0) whose error message names the offending variable
    (``scale must be a positive number, got '-1'``)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "%s must be a number, got %r" % (name, text))
        if not math.isfinite(value) or value < 0 or (value == 0 and not zero):
            raise argparse.ArgumentTypeError(
                "%s must be a %s number, got %r"
                % (name, "non-negative" if zero else "positive", text))
        return value
    return parse


def _positive_int(name: str, zero: bool = False):
    """An argparse type for integers >= 1 (with *zero*, >= 0); the
    error message names the offending variable (``reps must be a
    positive integer, got '0'``)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "%s must be an integer, got %r" % (name, text))
        if value < (0 if zero else 1):
            raise argparse.ArgumentTypeError(
                "%s must be a %s integer, got %r"
                % (name, "non-negative" if zero else "positive", text))
        return value
    return parse


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    try:
        defaults = config_from_env()
    except ValueError as exc:
        parser.error(str(exc))
    parser.add_argument("--jobs", type=int, default=defaults.jobs,
                        metavar="N",
                        help="worker processes for independent cells "
                             "(default %d; 1 = serial)" % defaults.jobs)
    parser.add_argument("--no-cache", action="store_true",
                        default=not defaults.cache,
                        help="disable the on-disk stage cache")
    parser.add_argument("--cache-dir", default=defaults.cache_dir,
                        metavar="DIR",
                        help="cache root (default %s)"
                             % defaults.cache_dir)
    parser.add_argument("--cell-timeout",
                        type=_positive_float("cell-timeout"),
                        default=defaults.cell_timeout, metavar="SEC",
                        help="per-cell timeout in parallel mode "
                             "(default %g)" % defaults.cell_timeout)
    parser.add_argument("--partial", action="store_true",
                        default=defaults.partial,
                        help="report cells that fail every retry in "
                             "run metadata and keep going, instead of "
                             "aborting the sweep (REPRO_PARTIAL=1)")
    parser.add_argument("--no-artifacts", action="store_true",
                        default=not defaults.artifacts,
                        help="disable the mmap-backed columnar "
                             "artifact plane; cells unpickle from the "
                             "stage cache instead (REPRO_ARTIFACTS=0)")


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    defaults = config_from_env()
    return EngineConfig(jobs=max(args.jobs, 1),
                        cache=not args.no_cache,
                        cache_dir=args.cache_dir,
                        cell_timeout=args.cell_timeout,
                        retries=defaults.retries,
                        retry_backoff=defaults.retry_backoff,
                        partial=args.partial or defaults.partial,
                        artifacts=not args.no_artifacts)


class _RunSession:
    """One CLI run that executes experiments or run tables.

    Sets up the engine and telemetry, opens the ``run`` span
    (``with session:``), times each unit under its ``experiment`` span
    with its stage delta (:meth:`measure`), and :meth:`finish` stores
    the observability artifacts and appends the run's one record to
    the run log (:mod:`repro.harness.runmeta`)."""

    def __init__(self, args: argparse.Namespace, argv: List[str],
                 observe: bool, repetitions: Optional[int] = None):
        from repro import obs as obslib
        from repro.harness.cachedir import CacheDir
        from repro.harness.runmeta import RunRecorder
        from repro.obs.report import obs_dir_for

        self.args = args
        self.engine = configure(_engine_config(args))
        obs_config = obslib.obs_config_from_env()
        if observe and obs_config is None:
            obs_config = obslib.ObsConfig()
        self.collector = obslib.configure_obs(obs_config)
        self.recorder = RunRecorder(argv=argv,
                                    engine_info=self.engine.describe(),
                                    scale=args.scale,
                                    repetitions=repetitions)
        self.obs_dir = obs_dir_for(CacheDir(args.cache_dir).runs_root,
                                   self.recorder.run_id)
        self._stack = contextlib.ExitStack()

    def __enter__(self) -> "_RunSession":
        if self.collector is not None:
            self._stack.enter_context(self.collector.tracer.span(
                "run", run_id=self.recorder.run_id,
                scale=self.args.scale))
        return self

    def __exit__(self, *exc_info) -> None:
        self._stack.close()

    def measure(self, identifier: str, work: Callable[[], object],
                profile: bool = False):
        """``(work(), wall seconds, stage note)`` for one experiment or
        table, recorded with its stage delta; with *profile*, its
        cProfile pstats land in the run's observability directory."""
        snapshot = self.engine.stats.snapshot()
        started = time.time()
        with contextlib.ExitStack() as stack:
            if self.collector is not None:
                stack.enter_context(self.collector.tracer.span(
                    "experiment", id=identifier))
                if profile:
                    from repro.obs.profiling import profile_into

                    os.makedirs(self.obs_dir, exist_ok=True)
                    stack.enter_context(profile_into(os.path.join(
                        self.obs_dir, "profile-%s.pstats" % identifier)))
            value = work()
        wall = time.time() - started
        stage_delta, instructions = \
            self.engine.stats.delta_since(snapshot)
        self.recorder.record(identifier, wall, stage_delta, instructions)
        return value, wall, _stage_note(stage_delta)

    def finish(self, notice: Callable[[str], None] = print,
               failed_experiments: Sequence[Dict[str, str]] = ()
               ) -> None:
        """Store the telemetry, then append the run record (unless
        ``--no-meta``)."""
        from repro.obs.history import kernel_pass_table

        recorder = self.recorder
        if self.collector is not None:
            recorder.kernel_passes = kernel_pass_table(
                span.to_dict() for span in self.collector.tracer.spans)
            try:
                artifacts = self.collector.write(self.obs_dir)
            except OSError as error:
                print("could not store observability artifacts: %s"
                      % error, file=sys.stderr)
            else:
                recorder.obs = {"artifacts": sorted(artifacts)}
                notice("stored observability artifacts: %s (render with "
                       "`repro-harness obs report %s`)"
                       % (self.obs_dir, recorder.run_id))
        recorder.robustness = self.engine.robustness()
        if failed_experiments:
            recorder.robustness["failed_experiments"] = \
                list(failed_experiments)
        for record in recorder.robustness.get("failed_cells") or []:
            print("partial: cell %s failed after retries: %s" %
                  (record.get("cell"), record.get("error")),
                  file=sys.stderr)
        if self.args.no_meta:
            return
        try:
            path = recorder.write(self.args.cache_dir)
        except OSError as error:
            print("could not record run metadata: %s" % error,
                  file=sys.stderr)
        else:
            notice("recorded run metadata: %s (run %s)"
                   % (path, recorder.run_id))


def _experiments_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the paper's figures and tables "
                    "(subcommands: 'runs' lists recorded runs, "
                    "'cache' manages the stage cache).")
    parser.add_argument("experiments", nargs="*",
                        metavar="ID",
                        help="experiment ids (%s); default: all"
                        % ", ".join(ALL_EXPERIMENTS))
    parser.add_argument("--scale", type=_positive_float("scale"),
                        default=1.0,
                        help="workload size multiplier "
                             "(default 1.0; must be > 0)")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump every experiment's raw data to "
                             "a JSON file")
    _add_record_arguments(parser)
    parser.add_argument("--profile", action="store_true",
                        help="store a cProfile pstats file per "
                             "experiment (implies --obs)")
    # A hidden synonym of --no-meta: benchmarks/e2e/run.py
    # --regen-fixtures still passes it.
    parser.add_argument("--no-history", action="store_true",
                        dest="no_meta", help=argparse.SUPPRESS)
    _add_engine_arguments(parser)
    args = parser.parse_args(argv)

    ids = [identifier.upper() for identifier in args.experiments] \
        or list(ALL_EXPERIMENTS)
    unknown = [identifier for identifier in ids
               if identifier not in ALL_EXPERIMENTS]
    if unknown:
        import difflib

        close = difflib.get_close_matches(unknown[0],
                                          list(ALL_EXPERIMENTS), n=1)
        hint = "; did you mean %s?" % close[0] if close else ""
        parser.error("unknown experiment ids: %s (have: %s)%s"
                     % (", ".join(unknown), ", ".join(ALL_EXPERIMENTS),
                        hint))

    session = _RunSession(args, list(argv),
                          observe=args.obs or args.profile)
    dumps = {}
    failed_experiments = []
    with session:
        for identifier in ids:
            try:
                result, wall, note = session.measure(
                    identifier, functools.partial(
                        run_experiment, identifier, scale=args.scale),
                    profile=args.profile)
            except Exception as error:
                # Partial mode keeps its promise one level up too: an
                # experiment whose cells all failed cannot aggregate,
                # so report it and move on to the survivors.
                if not session.engine.config.partial:
                    raise
                failed_experiments.append({
                    "id": identifier,
                    "error": "%s: %s" % (type(error).__name__, error),
                })
                print("partial: experiment %s failed: %s: %s" % (
                    identifier, type(error).__name__, error),
                    file=sys.stderr)
                continue
            print(result.render())
            print("[%s finished in %.1fs%s]" % (identifier, wall, note))
            print()
            if args.json:
                dumps[identifier] = {
                    "title": result.title,
                    "tables": [{"title": table.title,
                                "columns": table.columns,
                                "rows": table.rows}
                               for table in result.tables],
                }
    if args.json:
        import json

        with open(args.json, "w") as stream:
            json.dump({"scale": args.scale, "experiments": dumps},
                      stream, indent=2)
        print("wrote %s" % args.json)
    session.finish(failed_experiments=failed_experiments)
    return 1 if failed_experiments else 0


def _add_record_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-meta", action="store_true",
                        help="do not append this run's record to "
                             "<cache-dir>/runs/history.jsonl")
    parser.add_argument("--obs", action="store_true",
                        help="collect telemetry (spans, pipeline "
                             "timelines, predictor introspection) under "
                             "<cache-dir>/runs/obs-<id>/; also enabled "
                             "by REPRO_OBS=1")


def _stage_note(stage_delta) -> str:
    hits = sum(c.get("hits", 0) for c in stage_delta.values())
    misses = sum(c.get("misses", 0) for c in stage_delta.values())
    if hits == misses == 0:
        return ""
    return "; cache %d hit%s / %d miss%s" % (
        hits, "" if hits == 1 else "s",
        misses, "" if misses == 1 else "es")


def _experiments_registry_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness experiments",
        description="Inspect the experiment registry ('list' prints "
                    "every id with its one-line description; ids "
                    "backed by a declarative run table are marked).")
    parser.add_argument("action", nargs="?", default="list",
                        choices=("list",))
    parser.parse_args(argv)

    from repro.harness.experiments import (EXPERIMENT_DESCRIPTIONS,
                                           RUN_TABLES)

    for identifier in ALL_EXPERIMENTS:
        marker = "table" if identifier in RUN_TABLES else "-"
        print("%-4s %-5s %s" % (identifier, marker,
                                EXPERIMENT_DESCRIPTIONS.get(identifier,
                                                            "")))
    print()
    print("%d experiments; ids marked 'table' are declarative run "
          "tables (execute with `repro-harness table run <ID>`)"
          % len(ALL_EXPERIMENTS))
    return 0


def _table_main(argv: List[str]) -> int:
    from repro.harness.experiments import RUN_TABLES
    from repro.harness.runtable import RunTableExecutor, stats_tables
    from repro.harness.stats import CONFIDENCE_LEVELS

    parser = argparse.ArgumentParser(
        prog="repro-harness table",
        description="Declarative run tables: 'run' executes a table "
                    "and renders its canonical output (plus mean/CI "
                    "and factor-effect tables for --reps > 1), 'show' "
                    "prints the factor grid without executing, "
                    "'export' writes every measured cell and the "
                    "stats block as JSON or CSV.")
    parser.add_argument("action", choices=("run", "show", "export"))
    parser.add_argument("tables", nargs="*", metavar="ID",
                        help="run-table ids (%s); default: all"
                             % ", ".join(RUN_TABLES))
    parser.add_argument("--scale", type=_positive_float("scale"),
                        default=1.0,
                        help="workload size multiplier "
                             "(default 1.0; must be > 0)")
    parser.add_argument("--reps", type=_positive_int("reps"),
                        default=1, metavar="N",
                        help="seed repetitions per cell (default 1; "
                             "N > 1 re-seeds gen:... workloads per "
                             "repetition and appends statistics "
                             "tables)")
    parser.add_argument("--confidence", type=float, default=0.95,
                        metavar="C",
                        help="CI confidence level (%s; default 0.95)"
                             % ", ".join("%g" % level
                                         for level in CONFIDENCE_LEVELS))
    parser.add_argument("--format", choices=("json", "csv"),
                        default="json",
                        help="export: output format (default json; "
                             "csv covers exactly one table)")
    parser.add_argument("--output", metavar="PATH",
                        help="export: write to PATH instead of stdout")
    parser.add_argument("--json", metavar="PATH",
                        help="run: also dump cells + stats documents "
                             "to a JSON file")
    parser.add_argument("--csv", metavar="PATH",
                        help="run: also dump one table's cells to a "
                             "CSV file (exactly one ID)")
    _add_record_arguments(parser)
    _add_engine_arguments(parser)
    args = parser.parse_args(argv)

    ids = [identifier.upper() for identifier in args.tables] \
        or list(RUN_TABLES)
    unknown = [identifier for identifier in ids
               if identifier not in RUN_TABLES]
    if unknown:
        parser.error("unknown run-table ids: %s (have: %s)"
                     % (", ".join(unknown), ", ".join(RUN_TABLES)))
    if args.confidence not in CONFIDENCE_LEVELS:
        parser.error("confidence must be one of %s, got %g"
                     % (", ".join("%g" % level
                                  for level in CONFIDENCE_LEVELS),
                        args.confidence))
    csv_requested = args.csv or (args.action == "export"
                                 and args.format == "csv")
    if csv_requested and len(ids) != 1:
        parser.error("csv output covers one table's cells; select "
                     "exactly one run-table id (got %d)" % len(ids))

    if args.action == "show":
        for index, identifier in enumerate(ids):
            if index:
                print()
            _print_table_spec(RUN_TABLES[identifier])
        return 0

    session = _RunSession(args, ["table"] + list(argv),
                          observe=args.obs, repetitions=args.reps)
    # Exporting to stdout keeps it machine-readable; bookkeeping
    # notices go to stderr there.
    quiet = args.action == "export" and not args.output

    def notice(message: str) -> None:
        print(message, file=sys.stderr if quiet else sys.stdout)

    documents = {}
    csv_text = ""
    with session:
        for identifier in ids:
            table = RUN_TABLES[identifier]
            executor = RunTableExecutor(
                table, scale=args.scale, repetitions=args.reps,
                engine=session.engine)
            result, wall, note = session.measure(identifier,
                                                 executor.run)
            experiment = table.summarize(result)
            if args.reps > 1:
                experiment.tables.extend(
                    stats_tables(result, args.confidence))
            session.recorder.record_table(
                identifier, cells=table.n_cells(),
                repetitions=args.reps, seconds=result.seconds)
            if args.action == "run":
                print(experiment.render())
                print("[%s: %d cells x %d repetition%s in %.1fs%s]" % (
                    identifier, table.n_cells(), args.reps,
                    "" if args.reps == 1 else "s", wall, note))
                print()
            documents[identifier] = result.to_dict(args.confidence)
            if csv_requested:
                csv_text = result.to_csv()

    import json

    bundle = {"scale": args.scale, "repetitions": args.reps,
              "tables": documents}
    if args.action == "export":
        text = csv_text if args.format == "csv" else \
            json.dumps(bundle, indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w") as stream:
                stream.write(text)
            print("wrote %s" % args.output)
        else:
            sys.stdout.write(text)
    else:
        if args.json:
            with open(args.json, "w") as stream:
                json.dump(bundle, stream, indent=2, sort_keys=True)
                stream.write("\n")
            print("wrote %s" % args.json)
        if args.csv:
            with open(args.csv, "w") as stream:
                stream.write(csv_text)
            print("wrote %s" % args.csv)
    session.finish(notice)
    return 0


def _print_table_spec(table) -> None:
    print("%s: %s" % (table.id, table.title))
    if table.description:
        print("  %s" % table.description)
    for factor in table.factors:
        print("  factor  %-12s %s" % (factor.name,
                                      ", ".join(factor.labels())))
    print("  metrics %s" % ", ".join(table.metrics))
    print("  cells   %d per repetition" % table.n_cells())


def _runs_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness runs",
        description="Summarize the recorded runs.")
    parser.add_argument("--last", type=_positive_int("last"), metavar="N",
                        help="only the N most recent runs")
    parser.add_argument("--json", action="store_true",
                        help="print the raw records as JSON")
    parser.add_argument("--cache-dir", default=cache_dir_from_env(),
                        metavar="DIR", help="cache root")
    args = parser.parse_args(argv)

    from repro.harness.runmeta import summarize_runs

    documents, _ = _load_runs(args.cache_dir)
    if args.last is not None:
        documents = documents[-args.last:]
    if args.json:
        import json

        json.dump(documents, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(summarize_runs(documents))
    return 0


def _load_runs(cache_dir: str):
    """``(records, path)``: every verified record of the run log under
    *cache_dir*, oldest first; corrupt lines are counted on stderr."""
    from repro.obs.history import history_path, load_history

    path = history_path(cache_dir)
    records, skipped = load_history(path)
    if skipped:
        print("warning: skipped %d corrupt line%s in %s" %
              (skipped, "" if skipped == 1 else "s", path),
              file=sys.stderr)
    return records, path


def _cache_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness cache",
        description="Inspect, clear, or garbage-collect the on-disk "
                    "stage cache ('gc' sweeps stale *.tmp files, "
                    "drops quarantined entries, and with --max-bytes "
                    "evicts oldest entries to fit the bound).")
    parser.add_argument("action", choices=("stats", "clear", "gc"))
    parser.add_argument("--runs", action="store_true",
                        help="with 'clear': also delete the run log "
                             "and every run's telemetry")
    parser.add_argument("--max-bytes",
                        type=_positive_int("max-bytes", zero=True),
                        default=None, metavar="N",
                        help="with 'gc': evict oldest entries until "
                             "the store holds at most N bytes (0 "
                             "evicts everything)")
    parser.add_argument("--tmp-max-age",
                        type=_positive_float("tmp-max-age", zero=True),
                        default=3600.0, metavar="SEC",
                        help="with 'gc': only sweep *.tmp files older "
                             "than SEC seconds (default 3600)")
    parser.add_argument("--keep-quarantine", action="store_true",
                        help="with 'gc': keep quarantined entries for "
                             "post-mortems instead of deleting them")
    parser.add_argument("--cache-dir", default=cache_dir_from_env(),
                        metavar="DIR", help="cache root")
    args = parser.parse_args(argv)

    from repro.harness.cachedir import CacheDir

    cache = CacheDir(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        total = stats.pop("total")
        print("cache root: %s" % cache.root)
        for stage in sorted(stats):
            bucket = stats[stage]
            print("  %-10s %6d entries  %10.1f KiB" %
                  (stage, bucket["entries"], bucket["bytes"] / 1024.0))
        print("  %-10s %6d entries  %10.1f KiB" %
              ("total", total["entries"], total["bytes"] / 1024.0))
        temp = cache.temp_files()
        quarantine = cache.quarantine_stats()
        print("  orphaned temp files: %d" % len(temp))
        print("  quarantined: %d entries  %10.1f KiB" %
              (quarantine["entries"], quarantine["bytes"] / 1024.0))
    elif args.action == "gc":
        report = cache.gc(max_bytes=args.max_bytes,
                          tmp_max_age_seconds=args.tmp_max_age,
                          drop_quarantine=not args.keep_quarantine)
        print("cache gc: swept %d temp file%s, dropped %d "
              "quarantined, evicted %d entr%s (%.1f KiB live)" % (
                  report["tmp_swept"],
                  "" if report["tmp_swept"] == 1 else "s",
                  report["quarantine_dropped"],
                  report["evicted"],
                  "y" if report["evicted"] == 1 else "ies",
                  report["remaining_bytes"] / 1024.0))
    else:
        records = len(_load_runs(args.cache_dir)[0]) if args.runs else 0
        removed = cache.clear(runs=args.runs)
        print("removed %d cache entr%s from %s" %
              (removed, "y" if removed == 1 else "ies", cache.root))
        if args.runs:
            print("removed %d run record%s"
                  % (records, "" if records == 1 else "s"))
    return 0


def _obs_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness obs",
        description="Render stored observability artifacts: 'report' "
                    "(spans + timelines + hotspots), 'timeline' "
                    "(pipeline occupancy charts), 'hotspots' (top "
                    "mispredicted PCs), 'trend' (kernel-pass seconds "
                    "across recorded runs), 'regress' (latest run vs "
                    "rolling baseline; non-zero exit on regression — "
                    "a CI gate).")
    parser.add_argument("action",
                        choices=("report", "timeline", "hotspots",
                                 "trend", "regress"))
    parser.add_argument("run", nargs="?", default="last",
                        metavar="RUN",
                        help="run id, unique prefix, or 'last' "
                             "(default: newest observed run)")
    parser.add_argument("--label", metavar="TEXT",
                        help="timeline filter: label substring "
                             "(e.g. a workload name or 'elim')")
    parser.add_argument("--top", type=_positive_int("top"), default=10,
                        metavar="N",
                        help="hotspot count (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="dump the loaded artifacts as JSON "
                             "instead of rendering")
    parser.add_argument("--cache-dir", default=cache_dir_from_env(),
                        metavar="DIR", help="cache root")
    parser.add_argument("--last", type=_positive_int("last"), metavar="N",
                        help="trend: only the newest N runs")
    parser.add_argument("--pass", action="append", dest="pass_filters",
                        metavar="NAME",
                        help="trend: only kernel passes whose name "
                             "contains NAME (repeatable)")
    parser.add_argument("--threshold", type=float, default=2.0,
                        metavar="X",
                        help="regress: fail when a tracked metric "
                             "exceeds baseline_mean * X (default 2.0)")
    parser.add_argument("--window", type=_positive_int("window"),
                        default=5, metavar="N",
                        help="regress: rolling-baseline size "
                             "(default 5)")
    parser.add_argument("--against", metavar="PATH",
                        help="regress: compare against this committed "
                             "baseline log instead of earlier runs in "
                             "the cache's run log")
    args = parser.parse_args(argv)

    from repro.harness.cachedir import CacheDir
    from repro.obs.introspect import render_hotspots
    from repro.obs.report import (load_obs, render_kernel_passes,
                                  render_report, render_timelines,
                                  resolve_run)

    records, path = _load_runs(args.cache_dir)
    if args.action in ("trend", "regress"):
        return _obs_history_main(args, records, path)
    runs_root = CacheDir(args.cache_dir).runs_root
    run_doc = resolve_run(records, args.run)
    if run_doc is None:
        print("no run matches %r in %s (run an experiment with "
              "--obs first)" % (args.run, path), file=sys.stderr)
        return 1
    obs = load_obs(runs_root, run_doc)

    if args.json:
        import json

        json.dump({"run": run_doc, "obs": obs}, sys.stdout, indent=2,
                  sort_keys=True)
        print()
        return 0
    if args.action == "report":
        print(render_report(run_doc, obs, top=args.top))
    elif args.action == "timeline":
        print(render_timelines(obs, label=args.label))
    else:  # hotspots
        print(render_hotspots(obs.get("probes", []), top=args.top))
        print()
        print("-- kernel passes --")
        print(render_kernel_passes(obs.get("spans", [])))
    return 0


def _obs_history_main(args, records, path: str) -> int:
    """The actions over every recorded run: ``trend`` and
    ``regress``."""
    from repro.obs import history as obs_history

    if args.json:
        import json

        json.dump({"path": path, "records": records}, sys.stdout,
                  indent=2, sort_keys=True)
        print()
        return 0
    if args.action == "trend":
        print(obs_history.render_trend(records,
                                       passes=args.pass_filters,
                                       last=args.last))
        return 0
    # regress: newest record vs rolling (or committed) baseline
    if not records:
        print("no recorded runs in %s (run an experiment first)"
              % path, file=sys.stderr)
        return 1
    latest = records[-1]
    pool = records
    if args.against:
        pool, skipped = obs_history.load_history(args.against)
        if skipped:
            print("warning: skipped %d corrupt baseline line%s in %s" %
                  (skipped, "" if skipped == 1 else "s",
                   args.against), file=sys.stderr)
    baseline = obs_history.baseline_for(pool, latest,
                                        window=args.window)
    regressions = obs_history.compare_to_baseline(
        latest, baseline, threshold=args.threshold)
    print(obs_history.render_regress(latest, baseline, regressions,
                                     args.threshold))
    return 1 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "table":
        return _table_main(argv[1:])
    if argv and argv[0] == "experiments":
        return _experiments_registry_main(argv[1:])
    if argv and argv[0] == "runs":
        return _runs_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "obs":
        return _obs_main(argv[1:])
    return _experiments_main(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
