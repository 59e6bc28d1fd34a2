"""The run log: one checksummed JSON line per harness run.

Every harness run that executes experiments or run tables appends one
record to ``<cache-dir>/runs/history.jsonl``
(:meth:`repro.harness.runmeta.RunRecorder.write`): the run's argv,
scale, engine, per-experiment wall time and stage counts, run tables,
robustness counters, and a per-kernel-pass table aggregated from the
run's ``kernel:<pass>`` spans (the uops.info-style latency/throughput
table, tracked *over time* instead of as a point measurement; only
observed runs have spans, so an unobserved run records ``{}``).
Every run view reads this one log through :func:`load_history`:

* ``runs``         — one line per recorded run;
* ``obs report``   — one run's telemetry, resolved from its record;
* ``obs trend``    — per-pass seconds across runs;
* ``obs regress``  — the newest run against a rolling baseline of
  earlier same-fingerprint runs (or a committed baseline file via
  ``--against``), exiting non-zero when any tracked metric exceeds
  ``baseline_mean * threshold`` — usable directly as a CI gate
  (``.github/workflows/ci.yml``, job ``obs-pool``).

Records are self-verifying: the ``checksum`` field is the SHA-256 of
the record's canonical JSON without it, and :func:`load_history`
counts and skips lines that fail to parse or verify (a truncated tail
from a crashed run never poisons the log).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.spans import span_totals

__all__ = [
    "append_record",
    "baseline_for",
    "compare_to_baseline",
    "fingerprint",
    "history_path",
    "kernel_pass_table",
    "load_history",
    "render_regress",
    "render_trend",
]

#: metrics regress tracks: total wall plus every kernel pass's seconds
_WALL = "wall_s"


def history_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, "runs", "history.jsonl")


# ---------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------


def _checksum(record: Dict[str, object]) -> str:
    body = {key: value for key, value in record.items()
            if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _wall(record: Dict[str, object]) -> float:
    return float((record.get("totals") or {}).get("wall_s", 0.0))


def fingerprint(record: Dict[str, object]) -> str:
    """What makes two runs comparable: the experiment or run-table
    ids, the scale and, for a run-table run, its repetitions (an
    experiment run has none, so it never matches a table run).
    Parallelism and caching are deliberately excluded — they change
    how fast the same work happens, which is exactly what the
    trajectory is supposed to expose."""
    ids = sorted(str(entry.get("id", "?"))
                 for entry in record.get("experiments") or [])
    return "%s|%s|%s" % (",".join(ids), record.get("scale", 1.0),
                         record.get("repetitions", "-"))


def kernel_pass_table(spans: Iterable[Dict[str, object]]
                      ) -> Dict[str, Dict[str, float]]:
    """Per-pass ``{calls, items, seconds}`` aggregated over the
    ``kernel:<pass>`` span documents in *spans* (worker-merged spans
    included): the one derivation behind a run record's
    ``kernel_passes`` and the kernel table of ``obs report``.  A run
    without telemetry has no spans, so it records no passes."""
    return span_totals(spans, "kernel:", "items")


try:
    import fcntl
except ImportError:  # pragma: no cover (non-POSIX)
    fcntl = None


def append_record(cache_dir: str,
                  record: Dict[str, object]) -> str:
    """Append one record to the run log; returns the path.

    Concurrent harness invocations (parallel CLI runs) share one
    ``history.jsonl``, so the append must never interleave:
    the whole line goes down as a single ``write(2)`` on an
    ``O_APPEND`` descriptor, under an advisory ``flock`` where the
    platform has one.  A torn line would not crash the loader — it
    drops *both* writers' records from every run view — which is
    exactly why it must not happen.
    """
    path = history_path(cache_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if "checksum" not in record:
        record = dict(record)
        record["checksum"] = _checksum(record)
    line = (json.dumps(record, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            os.write(fd, line)
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)
    return path


def load_history(path: str) -> Tuple[List[Dict[str, object]], int]:
    """``(records, skipped)`` from one run log, oldest first.
    Unparseable or checksum-failing lines are counted and skipped —
    a torn append never poisons the log."""
    records: List[Dict[str, object]] = []
    skipped = 0
    try:
        with open(path) as stream:
            lines = stream.readlines()
    except OSError:
        return [], 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if not isinstance(record, dict) or \
                record.get("checksum") != _checksum(record):
            skipped += 1
            continue
        records.append(record)
    return records, skipped


# ---------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------


def _tracked_metrics(record: Dict[str, object]) -> Dict[str, float]:
    """The metrics the gate compares: total wall seconds and each
    kernel pass's per-item rate (seconds/item when items were counted,
    raw seconds otherwise — rates absorb workload-size drift)."""
    metrics = {_WALL: _wall(record)}
    for name, bucket in (record.get("kernel_passes") or {}).items():
        seconds = float(bucket.get("seconds", 0.0))
        items = float(bucket.get("items", 0))
        if items > 0:
            metrics["pass:%s:s_per_Mitem" % name] = \
                seconds * 1e6 / items
        else:
            metrics["pass:%s:seconds" % name] = seconds
    return metrics


def compare_to_baseline(latest: Dict[str, object],
                        baseline: Sequence[Dict[str, object]],
                        threshold: float = 2.0
                        ) -> List[Dict[str, object]]:
    """Regressions in *latest* against the mean of *baseline* records:
    ``[{"metric", "latest", "baseline", "ratio"}, ...]`` for every
    tracked metric where ``latest > mean * threshold``.  Metrics
    absent from the baseline are ignored (new passes are not
    regressions)."""
    if not baseline:
        return []
    sums: Dict[str, List[float]] = {}
    for record in baseline:
        for name, value in _tracked_metrics(record).items():
            sums.setdefault(name, []).append(value)
    regressions: List[Dict[str, object]] = []
    for name, value in sorted(_tracked_metrics(latest).items()):
        values = sums.get(name)
        if not values:
            continue
        mean = sum(values) / len(values)
        if mean <= 0:
            continue
        ratio = value / mean
        if ratio > threshold:
            regressions.append({"metric": name,
                                "latest": round(value, 6),
                                "baseline": round(mean, 6),
                                "ratio": round(ratio, 3)})
    return regressions


def baseline_for(records: Sequence[Dict[str, object]],
                 latest: Dict[str, object], window: int = 5
                 ) -> List[Dict[str, object]]:
    """The rolling baseline for *latest*: the newest *window* records
    of *records* (the same log, or a committed baseline file) other
    than *latest* that share its fingerprint."""
    key = fingerprint(latest)
    pool = [record for record in records
            if record is not latest and fingerprint(record) == key]
    return pool[-window:]


# ---------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------


def render_trend(records: Sequence[Dict[str, object]],
                 passes: Optional[Sequence[str]] = None,
                 last: Optional[int] = None) -> str:
    """Per-pass seconds across runs: one row per run, one column per
    kernel pass (newest run last) — the timing-table trajectory."""
    if last is not None:
        records = records[-last:]
    if not records:
        return "no recorded runs (run an experiment first)"
    names: List[str] = []
    for record in records:
        for name in (record.get("kernel_passes") or {}):
            if name not in names:
                names.append(name)
    if passes:
        names = [name for name in names
                 if any(token in name for token in passes)]
    if not names:
        return "no kernel passes recorded"
    header = "%-24s %8s" % ("run id", "wall(s)")
    header += "".join(" %14s" % name[:14] for name in names)
    lines = [header]
    for record in records:
        table = record.get("kernel_passes") or {}
        row = "%-24s %8.1f" % (record.get("run_id", "?"),
                               _wall(record))
        for name in names:
            bucket = table.get(name)
            row += " %14s" % ("%.3fs" % bucket["seconds"]
                              if bucket else "-")
        lines.append(row)
    return "\n".join(lines)


def render_regress(latest: Dict[str, object],
                   baseline: Sequence[Dict[str, object]],
                   regressions: Sequence[Dict[str, object]],
                   threshold: float) -> str:
    lines = ["regression gate: run %s vs %d baseline record%s "
             "(threshold %.2fx)" % (
                 latest.get("run_id", "?"), len(baseline),
                 "" if len(baseline) == 1 else "s", threshold)]
    if not baseline:
        lines.append("no comparable baseline records — gate passes "
                     "vacuously (record more runs or pass --against)")
    elif not regressions:
        lines.append("ok: no tracked metric exceeded its baseline")
    else:
        lines.append("%-28s %12s %12s %8s" %
                     ("metric", "latest", "baseline", "ratio"))
        for entry in regressions:
            lines.append("%-28s %12.6g %12.6g %7.2fx" % (
                entry["metric"], entry["latest"], entry["baseline"],
                entry["ratio"]))
    return "\n".join(lines)
