"""The repository's end-to-end benchmark.

Usage::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                  [--seconds S] [--trace 0|1] [--out DIR]
    python3 benchmarks/e2e/run.py --regen-fixtures

It runs each workload, checks every pass's output against the committed
fixtures under ``expected/``, prints every metric by name with its
unit, and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones (see README.md).

The loop is closed: this process runs each pass in a fresh child
interpreter (``child.py``), one after another, and no pass uses more
than ``min(2, nproc)`` worker processes.  Every pass gets its own cache
directory under ``.bench_build/e2e/``, so the repository's
``.repro-cache/`` is never touched.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import compare
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
EXPECTED = os.path.join(HERE, "expected")
CANONICAL_FIXTURE = os.path.join(EXPECTED, "canonical-s0.5.json")
GEN_FIXTURE = os.path.join(EXPECTED, "gen-s1.json")

#: the canonical experiment set runs at this --scale
SCALE = 0.5
#: worker processes of a pooled pass
POOL_JOBS = min(2, os.cpu_count() or 1)
#: fresh-interpreter samples behind one setup_s value
SETUP_SAMPLES = 5
#: a run stops starting passes this long after it began (the run must
#: end within 180 s)
RUN_DEADLINE_S = 160.0

#: Generated programs: one per (branchiness %, bias %) cell, each
#: n100 statements and 30% deadness.  Compile time is dominated by
#: hoisting, whose cost grows with (control-flow nodes) x (branch sites
#: that survive constant folding) and varies threefold between programs
#: of one cell.  So that a seed changes the programs but not the amount
#: of work, each cell takes, of the first GEN_CANDIDATES programs the
#: seed yields, the one whose product is closest to the cell's target
#: (the cell's median product over 400 seeds).  A pass is a few
#: seconds, so a run's median rejects a pass slowed by a noisy host.
GEN_CELLS = ((20, 95, 450), (20, 85, 500), (20, 50, 640),
             (40, 95, 3320), (40, 85, 3650), (40, 50, 4850),
             (60, 95, 11600), (60, 85, 12800), (60, 50, 17000))
GEN_STMTS = 100
GEN_DEADNESS = 30
GEN_CANDIDATES = 32
GEN_FIXTURE_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why it exists."""

    name: str
    #: worker processes of a measured pass
    jobs: int = 1
    #: measured passes share a cache warmed during set-up
    hot: bool = False
    #: the library path over generated programs, not the CLI
    generated: bool = False


WORKLOADS = (
    Workload("cold-serial"),
    Workload("cold-pool", jobs=POOL_JOBS),
    Workload("hot-serial", hot=True),
    Workload("gen-compile", generated=True),
)
WORKLOAD_NAMES = [workload.name for workload in WORKLOADS]

#: end-to-end metrics (untraced runs): name -> unit
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def per_layer_units(experiments: List[str]) -> Dict[str, str]:
    """Per-layer metrics (traced runs): name -> unit."""
    units = {}
    for name in ("lang.compile.calls", "emulator.run.calls",
                 "predictors.evaluate.calls", "pipeline.simulate.calls",
                 "cache.load.calls", "cache.store.calls",
                 "artifacts.attach.calls", "emulator.insts",
                 "analysis.insts", "pipeline.committed", "pipeline.cycles",
                 "engine.retries", "engine.pool_faults"):
        units[name] = "count"
    for name in ("lang.parse.s", "lang.lower.s", "lang.hoist.s",
                 "lang.codegen.s", "isa.assemble.s", "emulator.run.s",
                 "analysis.deadness.s", "kernels.stream.s",
                 "predictors.evaluate.s", "predictors.paths.s",
                 "pipeline.simulate.s", "cache.load.s", "cache.store.s",
                 "artifacts.attach.s", "artifacts.store.s",
                 "engine.run_cells.s", "engine.prefetch.s",
                 "pool.worker_busy.s", "harness.persist.s",
                 "unattributed.s"):
        units[name] = "s"
    for identifier in experiments:
        units["experiment.%s.s" % identifier] = "s"
    for name in ("cache.load.hit_ratio", "artifacts.attach.hit_ratio",
                 "engine.timing.hit_ratio", "pool.utilization",
                 "unattributed.frac", "trace.overhead_frac"):
        units[name] = "ratio"
    units["pipeline.kinst_per_s"] = "kinst/s"
    return units


# ---------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------


def _shape(stmts):
    """(control-flow nodes, branch sites with a non-constant condition)
    of a generated AST (node format: repro.workloads.generate)."""
    control = branches = 0
    for stmt in stmts:
        if stmt[0] == "if":
            condition = stmt[1]
            constant = (condition[0] == "bin" and condition[2][0] == "num"
                        and condition[3][0] == "num")
            then_shape, else_shape = _shape(stmt[2]), _shape(stmt[3])
            control += 1 + then_shape[0] + else_shape[0]
            branches += (not constant) + then_shape[1] + else_shape[1]
        elif stmt[0] == "loop":
            body = _shape(stmt[2])
            control += 1 + body[0]
            branches += 1 + body[1]
    return control, branches


def gen_programs(seed: int) -> List[str]:
    """The generated-program names of gen-compile for *seed*."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.workloads.generate import generate_ast, parse_generated_name

    def distance(name):
        control, branches = _shape(generate_ast(parse_generated_name(name)))
        return abs(control * branches - target)

    names = []
    for cell, (branchiness, bias, target) in enumerate(GEN_CELLS):
        names.append(min(
            ("gen:s%d:n%d:b%d:d%d:p%d" % (
                seed * 1000 + cell * GEN_CANDIDATES + candidate, GEN_STMTS,
                branchiness, GEN_DEADNESS, bias)
             for candidate in range(GEN_CANDIDATES)), key=distance))
    return names


def _digest(program: Dict[str, object]) -> Dict[str, object]:
    """What expected/gen-s1.json holds of one generated program."""
    return {key: program[key] for key in ("asm_sha256", "base", "elim")}


def _load_json(path: str):
    with open(path) as stream:
        return json.load(stream)


# ---------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------


def _stop_group(process: subprocess.Popen) -> None:
    """Kill whatever is left of a pass's process group and wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Run:
    """One workload run: its scratch directory, passes and tallies."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.facts: Dict[str, object] = {}
        self._counter = itertools.count()
        self.programs = gen_programs(seed) if workload.generated else []

    @functools.cached_property
    def canonical_bytes(self) -> bytes:
        with open(CANONICAL_FIXTURE, "rb") as stream:
            return stream.read()

    @functools.cached_property
    def canonical(self) -> Dict[str, object]:
        return json.loads(self.canonical_bytes)

    @functools.cached_property
    def gen_expected(self) -> Optional[Dict[str, object]]:
        """Per-program digests to match, at the fixture's seed only."""
        if self.seed != GEN_FIXTURE_SEED:
            return None
        return _load_json(GEN_FIXTURE)["programs"]

    def fresh_dir(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=label + "-", dir=self.workdir)

    def child(self, spec: Dict[str, object]) -> Dict[str, object]:
        """Run one child pass to completion; its result document."""
        index = next(self._counter)
        base = os.path.join(self.workdir, "pass-%d" % index)
        spec["result"] = base + ".result.json"
        with open(base + ".spec.json", "w") as stream:
            json.dump(spec, stream)
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0",
                   TMPDIR=os.path.join(self.workdir, "tmp"))
        remaining = self.started + RUN_DEADLINE_S - time.monotonic()
        with open(base + ".log", "w") as log:
            process = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"),
                 base + ".spec.json"],
                cwd=self.workdir, env=env, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True)
            try:
                process.wait(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                pass
            finally:
                _stop_group(process)
        try:
            result = _load_json(spec["result"])
        except (OSError, ValueError):
            with open(base + ".log") as stream:
                tail = stream.read()[-2000:]
            result = {"error": "pass exited %s without a result:\n%s"
                               % (process.returncode, tail)}
        for key in ("backend", "numpy"):
            if result.get(key):
                self.facts[key] = result[key]
        return result

    def setup_sample(self) -> Optional[float]:
        result = self.child({"mode": "setup", "jobs": self.workload.jobs,
                             "cache_dir": self.fresh_dir("setup")})
        if "error" in result:
            self.notes.append("setup: " + result["error"])
            return None
        return result["setup_s"]

    def measured_pass(self, cache_dir: Optional[str] = None,
                      jobs: Optional[int] = None,
                      trace_dir: Optional[str] = None
                      ) -> Dict[str, object]:
        """One checked pass; cold passes get a fresh cache directory."""
        cold = cache_dir is None
        cache_dir = cache_dir or self.fresh_dir("cache")
        spec: Dict[str, object] = {"cache_dir": cache_dir,
                                   "trace": trace_dir}
        if self.workload.generated:
            spec.update(mode="gen", programs=self.programs)
        else:
            output = os.path.join(self.fresh_dir("out"), "canonical.json")
            spec.update(mode="cli", argv=[
                "--scale", str(SCALE),
                "--jobs", str(jobs or self.workload.jobs),
                "--cache-dir", cache_dir, "--json", output])
        result = self.child(spec)
        if self.workload.generated:
            attempted, failed = self.check_gen(result)
        else:
            attempted, failed = self.check_cli(result, spec["argv"][-1])
        self.attempted += attempted
        self.failed += failed
        if cold:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return result

    def _faults(self, result: Dict[str, object]) -> int:
        faults = result.get("retries", 0) + result.get("pool_faults", 0)
        if faults:
            self.notes.append("%d retries and %d pool faults" % (
                result.get("retries", 0), result.get("pool_faults", 0)))
        return faults

    def check_cli(self, result: Dict[str, object], output: str):
        """(attempted, failed) experiments of one CLI pass."""
        expected = self.canonical["experiments"]
        if "error" in result or result.get("rc") != 0:
            self.notes.append("cli pass failed: %s" % result.get(
                "error", "exit code %s" % result.get("rc")))
            return len(expected), len(expected)
        try:
            with open(output, "rb") as stream:
                data = stream.read()
        except OSError:
            self.notes.append("cli pass wrote no --json output")
            return len(expected), len(expected)
        failed = 0
        if data != self.canonical_bytes:
            try:
                produced = json.loads(data).get("experiments", {})
            except ValueError:
                produced = {}
            mismatched = [identifier for identifier in expected
                          if produced.get(identifier)
                          != expected[identifier]]
            self.notes.append("output differs from %s: %s" % (
                os.path.basename(CANONICAL_FIXTURE),
                ", ".join(mismatched) or "formatting"))
            failed = max(len(mismatched), 1)
        failed += self._faults(result)
        return len(expected), min(failed, len(expected))

    def check_gen(self, result: Dict[str, object]):
        """(attempted, failed) programs of one gen pass."""
        if "error" in result:
            self.notes.append("gen pass failed: " + result["error"])
            return len(self.programs), len(self.programs)
        produced = {record["name"]: record for record in result["programs"]}
        dropped = {cell.split("@")[0] for cell in result["failed_cells"]}
        failed = 0
        for name in self.programs:
            record = produced.get(name)
            problems = list(record["problems"]) if record else []
            if record is None or name in dropped:
                problems.append("did not compile, run or match the "
                                "interpreter")
            elif self.gen_expected is not None \
                    and _digest(record) != self.gen_expected.get(name):
                problems.append("differs from %s"
                                % os.path.basename(GEN_FIXTURE))
            if problems:
                failed += 1
                self.notes.append("%s: %s" % (name, "; ".join(problems)))
        failed += self._faults(result)
        return len(self.programs), min(failed, len(self.programs))


# ---------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------


def _warm(run: Run) -> Tuple[Optional[str], Optional[float]]:
    """(cache directory the measured passes share, wall time of the
    pooled cold pass that filled it); (None, None) for cold workloads."""
    if not run.workload.hot:
        return None, None
    warm = run.fresh_dir("warm")
    return warm, run.measured_pass(cache_dir=warm,
                                   jobs=POOL_JOBS).get("wall_s")


def _for_about(run: Run, seconds: float,
               one_round: Callable[[], bool]) -> None:
    """Call *one_round* until about *seconds* have passed, at least once:
    a round starts only if one more of the last round's length still
    fits.  A round returning False stops the loop."""
    began = time.monotonic()
    while True:
        before = time.monotonic()
        if not one_round():
            return
        now = time.monotonic()
        took = now - before
        if now - began + took > seconds \
                or now + took > run.started + RUN_DEADLINE_S:
            return


def run_untraced(run: Run, seconds: float) -> Dict[str, Dict[str, object]]:
    """Set up, then measure whole passes for about *seconds*."""
    samples = [sample for sample in (run.setup_sample()
                                     for _ in range(SETUP_SAMPLES))
               if sample is not None]
    setup_s = compare.median(samples) if samples else None
    warm, warm_s = _warm(run)
    if setup_s is not None and warm_s is not None:
        setup_s += warm_s
    passes = []

    def one_round():
        result = run.measured_pass(cache_dir=warm)
        passes.append(result)
        return "wall_s" in result

    _for_about(run, seconds, one_round)
    measured = [result for result in passes if "wall_s" in result]
    metrics = {name: {"value": compare.median([result[name]
                                               for result in measured]),
                      "unit": END_TO_END[name], "n": len(measured)}
               for name in ("wall_s", "cpu_s", "peak_rss_mb") if measured}
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": END_TO_END["setup_s"],
                              "n": len(samples)}
    return metrics


def run_traced(run: Run, seconds: float,
               trace_dir: str) -> Dict[str, Dict[str, object]]:
    """Pairs of an untraced and a traced pass for about *seconds*; the
    per-layer metrics and the self-time table come from the first
    traced pass, the tracing overhead from the medians of all."""
    warm, _ = _warm(run)
    os.makedirs(trace_dir, exist_ok=True)
    plain_walls, traced_walls, results = [], [], []

    def one_round():
        plain = run.measured_pass(cache_dir=warm)
        result = run.measured_pass(
            cache_dir=warm,
            trace_dir=run.fresh_dir("trace") if results else trace_dir)
        if "wall_s" not in plain or "wall_s" not in result:
            return False
        results.append(result)
        plain_walls.append(plain["wall_s"])
        traced_walls.append(result["wall_s"])
        return True

    _for_about(run, seconds, one_round)
    traced = results[0] if results else {}
    merged = spans.merge_span_files(trace_dir)
    for path in os.listdir(trace_dir):
        if path.startswith("spans-"):
            os.unlink(os.path.join(trace_dir, path))
    with open(os.path.join(trace_dir, "spans.jsonl"), "w") as stream:
        for record in merged:
            stream.write(json.dumps(record) + "\n")
    recorded = spans.pass_spans(merged)
    experiments = list(run.canonical["experiments"])
    values = spans.layer_metrics(recorded, experiments=experiments)
    hits = traced.get("timing_hits", 0)
    lookups = hits + traced.get("timing_misses", 0)
    values["engine.timing.hit_ratio"] = hits / lookups if lookups else 0.0
    values["engine.retries"] = traced.get("retries", 0)
    values["engine.pool_faults"] = traced.get("pool_faults", 0)
    wall = traced.get("wall_s")
    values["pool.utilization"] = (
        values["pool.worker_busy.s"] / (wall * run.workload.jobs)
        if wall and run.workload.jobs > 1 else 0.0)
    values["trace.overhead_frac"] = (
        compare.median(traced_walls) / compare.median(plain_walls) - 1.0
        if traced_walls else 0.0)
    table = spans.render_table(
        recorded, "self time of the traced %s pass (seed %d)"
        % (run.workload.name, run.seed))
    table += "\nunattributed.frac %.4f   trace.overhead_frac %.4f\n" % (
        values["unattributed.frac"], values["trace.overhead_frac"])
    with open(os.path.join(trace_dir, "selftime.txt"), "w") as stream:
        stream.write(table)
    print(table)
    return {name: {"value": values.get(name, 0), "unit": unit, "n": 1}
            for name, unit in per_layer_units(experiments).items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search the directories above the checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as stream:
            head = stream.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as stream:
                return stream.read().strip()
        with open(os.path.join(git, "packed-refs")) as stream:
            for line in stream:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


@contextlib.contextmanager
def _workdir(prefix: str):
    """A scratch directory under .bench_build/e2e/work, removed after."""
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=prefix + "-",
                               dir=os.path.join(BUILD, "work"))
    os.makedirs(os.path.join(workdir, "tmp"))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, out_dir: str) -> Dict[str, object]:
    """One run of *workload*; writes its record to *out_dir*."""
    os.makedirs(out_dir, exist_ok=True)
    started = time.time()
    tag = "%s-s%d-%s-%d" % (workload.name, seed,
                            time.strftime("%Y%m%dT%H%M%S"), os.getpid())
    with _workdir(tag) as workdir:
        run = Run(workload, seed, workdir)
        if trace:
            metrics = run_traced(run, seconds,
                                 os.path.join(out_dir, tag + "-trace"))
        else:
            metrics = run_untraced(run, seconds)
    record = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "started": started, "seconds": seconds,
        # A run that attempted nothing has failed.
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "notes": run.notes, "metrics": metrics,
        "programs": run.programs,
        "host": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                 "python": platform.python_version(),
                 "numpy": run.facts.get("numpy"),
                 "backend": run.facts.get("backend"),
                 "commit": _git_commit(), "seed": seed},
    }
    with open(os.path.join(out_dir, tag + ".json"), "w") as stream:
        json.dump(record, stream, indent=1, sort_keys=True)
    return record


def regen_fixtures() -> int:
    """Rewrite expected/ from the current code (cold, serial)."""
    with _workdir("regen") as workdir:
        run = Run(WORKLOADS[0], GEN_FIXTURE_SEED, workdir)
        result = run.child({"mode": "cli", "trace": None, "argv": [
            "--scale", str(SCALE), "--jobs", "1", "--no-cache",
            "--no-meta", "--no-history", "--json", CANONICAL_FIXTURE]})
        if "error" in result or result.get("rc") != 0:
            print(result.get("error", result), file=sys.stderr)
            return 1
        result = run.child({"mode": "gen", "trace": None,
                            "programs": gen_programs(GEN_FIXTURE_SEED),
                            "cache_dir": run.fresh_dir("cache")})
    if "error" in result or result["failed_cells"] or any(
            record["problems"] for record in result["programs"]):
        print(json.dumps(result, indent=1), file=sys.stderr)
        return 1
    fixture = {"seed": GEN_FIXTURE_SEED,
               "programs": {record["name"]: _digest(record)
                            for record in result["programs"]}}
    with open(GEN_FIXTURE, "w") as stream:
        json.dump(fixture, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print("wrote %s and %s" % (CANONICAL_FIXTURE, GEN_FIXTURE))
    return 0


def _print_metrics(record: Dict[str, object]) -> None:
    print("%s  seed %d  %s  attempted %d  failed %d" % (
        record["workload"], record["seed"],
        "traced" if record["trace"] else "untraced",
        record["attempted"], record["failed"]))
    for note in record["notes"]:
        print("  note: %s" % note.splitlines()[0])
    for name, metric in record["metrics"].items():
        print("  %-28s %14.6g %-8s n=%d" % (name, metric["value"],
                                            metric["unit"], metric["n"]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=GEN_FIXTURE_SEED,
                        help="input seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long each run measures "
                             "(default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer "
                             "metrics and a self-time table")
    parser.add_argument("--out", default=os.path.join(BUILD, "results"),
                        help="directory for result records and traces "
                             "(default %(default)s)")
    parser.add_argument("--regen-fixtures", action="store_true",
                        help="rewrite expected/ from the current code")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "repro", "harness", "cli.py")):
        print("run.py: no program source under %s; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        return 2
    if args.regen_fixtures:
        return regen_fixtures()

    chosen = [workload for workload in WORKLOADS
              if workload.name in (args.workload or WORKLOAD_NAMES)]
    records = []
    for workload in chosen:
        # Passes run in their own scratch directory: hand them
        # absolute paths.
        record = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), os.path.abspath(args.out))
        _print_metrics(record)
        records.append(record)

    single = len(records) == 1
    summary = {
        "correct": all(record["failed"] == 0 for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            (name if single else "%s.%s" % (record["workload"], name)):
                {"value": metric["value"], "unit": metric["unit"]}
            for record in records
            for name, metric in record["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
