"""Span recording around the program's public functions, and the
arithmetic the traced report needs.

The benchmark never edits the program.  :func:`install` replaces a fixed
list of public functions, at the module attribute their callers look
them up through, with wrappers that record one span per call: an id,
the id of the enclosing span, a name, start and end times and the pid.
The main process keeps its spans in memory and writes them once at the
end of the pass.  Pool workers are forked from it and inherit the
wrappers; there is no clean exit hook in a worker (the pool terminates
it), so a worker appends one line per call to its own per-pid file.

A span's self time is its duration minus the part of it that its
direct children cover.  Self times of one process add up to its root
span, so a pass's breakdown adds up to its wall time, and the root's
own self time is the part no layer accounts for (``unattributed``).
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional

#: Span names of the roots of worker processes; their self time is pool
#: bookkeeping (payload packing, hydration), charged to the engine.
WORKER_ROOTS = ("pool.cell", "pool.prefetch")


class Recorder:
    """Collects spans for one pass (and, after a fork, for one worker)."""

    def __init__(self, directory: str):
        self.directory = directory
        self.pid = os.getpid()
        self.spans: List[Dict[str, object]] = []
        self._stack: List[str] = []
        self._counter = 0
        self._fd: Optional[int] = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A worker starts a span tree of its own: nothing of the
        # parent's open stack runs in it.
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._fd = os.open(
            os.path.join(self.directory, "spans-%d.jsonl" % self.pid),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; yields the record, to
        which the caller may add attributes."""
        self._counter += 1
        record = {"id": "%d.%d" % (self.pid, self._counter),
                  "parent": self._stack[-1] if self._stack else None,
                  "pid": self.pid, "name": name,
                  "start": time.perf_counter()}
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if self._fd is None:
                self.spans.append(record)
            else:
                # One write(2) per line on an O_APPEND descriptor: a
                # worker killed mid-pass loses at most this line.
                os.write(self._fd, (json.dumps(record) + "\n").encode())

    def wrap(self, name: str, function: Callable,
             measure: Optional[Callable] = None) -> Callable:
        """*function* recording a span named *name* per call;
        ``measure(args, result)`` adds attributes from a return value."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if measure is not None:
                    record.update(measure(args, result))
                return result

        return wrapper

    def write(self) -> None:
        """Write the in-memory spans of this process."""
        path = os.path.join(self.directory, "spans-%d.jsonl" % self.pid)
        with open(path, "a") as stream:
            for record in self.spans:
                stream.write(json.dumps(record) + "\n")


def _insts(args, result) -> Dict[str, object]:
    return {"insts": len(result[1].pcs)}


def _analysis(args, result) -> Dict[str, object]:
    return {"insts": result.n_dynamic}


def _simulated(args, result) -> Dict[str, object]:
    return {"committed": result.stats.committed,
            "cycles": result.stats.cycles}


def _experiment(args, result) -> Dict[str, object]:
    return {"experiment": str(args[0]).upper()}


def _loaded(args, result) -> Dict[str, object]:
    from repro.harness.cachedir import MISS

    return {"hit": result is not MISS}


def _attached(args, result) -> Dict[str, object]:
    return {"hit": result is not None}


#: (module, attribute, span name, measure).  An attribute ``A.b`` is the
#: method ``b`` of class ``A``.  Functions are patched where their
#: callers look them up, so each layer boundary is crossed through a
#: wrapper exactly once.
SITES = (
    ("repro.harness.engine", "compile_source", "lang.compile", None),
    ("repro.lang.compiler", "parse", "lang.parse", None),
    ("repro.lang.compiler", "lower_program", "lang.lower", None),
    ("repro.lang.compiler", "hoist_module", "lang.hoist", None),
    ("repro.lang.compiler", "generate_module", "lang.codegen", None),
    ("repro.harness.engine", "assemble", "isa.assemble", None),
    ("repro.harness.engine", "run_program", "emulator.run", _insts),
    ("repro.harness.engine", "analyze_deadness", "analysis.deadness",
     _analysis),
    ("repro.kernels", "prediction_stream_for", "kernels.stream", None),
    ("repro.harness.experiments", "evaluate_predictor",
     "predictors.evaluate", None),
    ("repro.harness.sweep", "evaluate_predictor", "predictors.evaluate",
     None),
    ("repro.harness.engine", "compute_paths", "predictors.paths", None),
    ("repro.predictors.dead.evaluate", "compute_paths", "predictors.paths",
     None),
    ("repro.pipeline.elimination", "compute_paths", "predictors.paths",
     None),
    ("repro.harness.engine", "simulate", "pipeline.simulate", _simulated),
    ("repro.harness.cachedir", "CacheDir.load", "cache.load", _loaded),
    ("repro.harness.cachedir", "CacheDir.store", "cache.store", None),
    ("repro.harness.artifacts", "ArtifactPlane.attach", "artifacts.attach",
     _attached),
    ("repro.harness.artifacts", "ArtifactPlane.attach_handle",
     "artifacts.attach", _attached),
    ("repro.harness.artifacts", "ArtifactPlane.store", "artifacts.store",
     None),
    ("repro.harness.engine", "Engine.run_cells", "engine.run_cells", None),
    ("repro.harness.engine", "Engine.prefetch_simulations",
     "engine.prefetch", None),
    ("repro.harness.engine", "_pool_cell_worker", "pool.cell", None),
    ("repro.harness.engine", "_prefetch_sim_worker", "pool.prefetch", None),
    ("repro.harness.cli", "run_experiment", "experiment", _experiment),
    ("repro.obs.history", "append_record", "harness.persist", None),
    ("repro.harness.runmeta", "RunRecorder.write", "harness.persist", None),
)


def install(recorder: Recorder) -> None:
    """Wrap every function in :data:`SITES` (in this process, and so in
    every worker forked from it)."""
    for module_name, attribute, name, measure in SITES:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, recorder.wrap(name, getattr(owner, leaf),
                                           measure))


# ---------------------------------------------------------------------
# Report arithmetic (pure: tested in test_helpers.py)
# ---------------------------------------------------------------------


def merge_span_files(directory: str) -> List[Dict[str, object]]:
    """Every span written under *directory*, ordered by start time.  A
    line a killed worker left half-written is skipped."""
    spans = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path) as stream:
            for line in stream:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and "end" in record:
                    spans.append(record)
    spans.sort(key=lambda record: (record["start"], record["id"]))
    return spans


def pass_spans(spans: Iterable[Dict[str, object]], root: str = "pass"
               ) -> List[Dict[str, object]]:
    """The spans of the timed region: the tree under *root* and every
    worker's tree; calls made before or after the region are dropped."""
    spans = list(spans)
    by_id = {record["id"]: record for record in spans}

    def top(record):
        while record["parent"] in by_id:
            record = by_id[record["parent"]]
        return record

    return [record for record in spans
            if top(record)["name"] in (root,) + WORKER_ROOTS]


def self_times(spans: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """Span id -> duration minus the part its direct children cover."""
    spans = list(spans)
    by_id = {record["id"]: record for record in spans}
    own = {record["id"]: record["end"] - record["start"]
           for record in spans}
    for record in spans:
        parent = by_id.get(record["parent"])
        if parent is None:
            continue
        covered = (min(record["end"], parent["end"])
                   - max(record["start"], parent["start"]))
        own[parent["id"]] -= max(covered, 0.0)
    return {span_id: max(seconds, 0.0) for span_id, seconds in own.items()}


def self_time_table(spans: Iterable[Dict[str, object]]
                    ) -> Dict[str, Dict[str, float]]:
    """Span name -> {"calls", "self_s", "total_s"} summed over every
    process."""
    spans = list(spans)
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for record in spans:
        row = table.setdefault(record["name"],
                               {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[record["id"]]
        row["total_s"] += record["end"] - record["start"]
    return table


def layer_metrics(spans: Iterable[Dict[str, object]], root: str = "pass",
                  experiments: Iterable[str] = ()) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    spans = list(spans)
    table = self_time_table(spans)

    def row(name):
        return table.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    def ratio(name, key):
        hits = [record.get(key) for record in spans
                if record["name"] == name]
        return sum(1 for hit in hits if hit) / len(hits) if hits else 0.0

    def attr_sum(name, key):
        return sum(record.get(key, 0) for record in spans
                   if record["name"] == name)

    metrics: Dict[str, float] = {}
    for name in ("lang.compile", "emulator.run", "predictors.evaluate",
                 "pipeline.simulate", "cache.load", "cache.store",
                 "artifacts.attach"):
        metrics[name + ".calls"] = row(name)["calls"]
    for name in ("lang.parse", "lang.lower", "lang.hoist", "lang.codegen",
                 "isa.assemble", "emulator.run", "analysis.deadness",
                 "kernels.stream", "predictors.evaluate",
                 "predictors.paths", "pipeline.simulate", "cache.load",
                 "cache.store", "artifacts.attach", "artifacts.store",
                 "engine.run_cells", "engine.prefetch",
                 "harness.persist"):
        metrics[name + ".s"] = row(name)["self_s"]
    metrics["emulator.insts"] = attr_sum("emulator.run", "insts")
    metrics["analysis.insts"] = attr_sum("analysis.deadness", "insts")
    committed = attr_sum("pipeline.simulate", "committed")
    metrics["pipeline.committed"] = committed
    metrics["pipeline.cycles"] = attr_sum("pipeline.simulate", "cycles")
    simulate_s = row("pipeline.simulate")["total_s"]
    metrics["pipeline.kinst_per_s"] = (committed / simulate_s / 1000.0
                                       if simulate_s else 0.0)
    metrics["cache.load.hit_ratio"] = ratio("cache.load", "hit")
    metrics["artifacts.attach.hit_ratio"] = ratio("artifacts.attach", "hit")
    metrics["pool.worker_busy.s"] = sum(row(name)["total_s"]
                                        for name in WORKER_ROOTS)
    for identifier in experiments:
        metrics["experiment.%s.s" % identifier] = sum(
            record["end"] - record["start"] for record in spans
            if record["name"] == "experiment"
            and record.get("experiment") == identifier)
    metrics["unattributed.s"] = row(root)["self_s"]
    metrics["unattributed.frac"] = (row(root)["self_s"] / row(root)["total_s"]
                                    if row(root)["total_s"] else 0.0)
    return metrics


def render_table(spans: Iterable[Dict[str, object]], title: str) -> str:
    """The self-time table: one row per span name, largest first, with
    each row's share of all self time (every process)."""
    table = self_time_table(spans)
    total = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [title,
             "%-22s %8s %10s %10s %7s" % ("span", "calls", "self_s",
                                          "total_s", "share")]
    for name, row in sorted(table.items(),
                            key=lambda item: -item[1]["self_s"]):
        lines.append("%-22s %8d %10.4f %10.4f %6.1f%%" % (
            name, row["calls"], row["self_s"], row["total_s"],
            100.0 * row["self_s"] / total))
    lines.append("%-22s %8s %10.4f" % ("all self time", "", total))
    return "\n".join(lines)
