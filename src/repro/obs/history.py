"""Persistent run history: per-run timing records with regression gates.

Every harness invocation appends one checksummed JSON line to
``<cache-dir>/obs-history/history.jsonl``: run id, a config
fingerprint (experiment set, scale), total wall time,
per-stage cache totals, per-kernel-pass timing aggregated from the
run's ``kernel:<pass>`` spans (the uops.info-style latency/throughput
table, tracked *over time* instead of as a point measurement; only
observed runs have spans, so only they record passes), and the
robustness counters.  The record survives the
process, so perf claims become trajectories:

* ``obs history``  — one line per recorded run;
* ``obs trend``    — per-pass seconds (and items/s) across runs;
* ``obs regress``  — the newest run against a rolling baseline of
  earlier same-fingerprint runs (or a committed baseline file via
  ``--against``), exiting non-zero when any tracked metric exceeds
  ``baseline_mean * threshold`` — usable directly as a CI gate
  (``.github/workflows/ci.yml``, job ``obs-pool``).

Records are self-verifying: the ``checksum`` field is the SHA-256 of
the record's canonical JSON without it, and :func:`load_history`
silently skips lines that fail to parse or verify (a truncated tail
from a crashed run never poisons the trajectory).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.spans import span_totals

__all__ = [
    "RECORD_SCHEMA",
    "append_record",
    "compare_to_baseline",
    "fingerprint",
    "history_path",
    "kernel_pass_table",
    "load_history",
    "make_record",
    "render_history",
    "render_regress",
    "render_trend",
]

RECORD_SCHEMA = 1

#: metrics regress tracks: total wall plus every kernel pass's seconds
_WALL = "wall_s"


def history_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, "obs-history", "history.jsonl")


# ---------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------


def _checksum(record: Dict[str, object]) -> str:
    body = {key: value for key, value in record.items()
            if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fingerprint(record: Dict[str, object]) -> str:
    """What makes two runs comparable: experiment set and scale.
    Parallelism and caching are deliberately excluded — they change
    how fast the same work happens, which is exactly what the
    trajectory is supposed to expose."""
    config = record.get("config") or {}
    return "%s|%s" % (
        ",".join(sorted(config.get("experiments") or [])),
        config.get("scale", 1.0))


def kernel_pass_table(spans: Iterable[Dict[str, object]]
                      ) -> Dict[str, Dict[str, float]]:
    """Per-pass ``{calls, items, seconds}`` aggregated over the
    ``kernel:<pass>`` span documents in *spans* (worker-merged spans
    included): the one derivation behind a history record's
    ``kernel_passes`` and the kernel table of ``obs report``.  A run
    without telemetry has no spans, so it records no passes."""
    return span_totals(spans, "kernel:", "items")


def make_record(run_doc: Dict[str, object],
                kernel_passes: Dict[str, Dict[str, float]],
                scale: float = 1.0) -> Dict[str, object]:
    """One history record from a finished run's metadata document
    (:meth:`repro.harness.runmeta.RunRecorder.document`) plus the
    per-pass timing table."""
    engine = run_doc.get("engine") or {}
    totals = run_doc.get("totals") or {}
    robustness = run_doc.get("robustness") or {}
    record: Dict[str, object] = {
        "schema": RECORD_SCHEMA,
        "run_id": run_doc.get("run_id", "?"),
        "started_at": run_doc.get("started_at", "?"),
        "config": {
            "jobs": engine.get("jobs", 1),
            "experiments": [str(entry.get("id", "?")) for entry
                            in run_doc.get("experiments") or []],
            "scale": scale,
            "argv": list(run_doc.get("argv") or []),
        },
        "wall_s": float(totals.get("wall_s", 0.0)),
        "instructions": int(totals.get("instructions", 0)),
        "stages": {
            stage: {"hits": int(counts.get("hits", 0)),
                    "misses": int(counts.get("misses", 0)),
                    "seconds": round(float(counts.get("seconds", 0.0)),
                                     6)}
            for stage, counts in (totals.get("stages") or {}).items()},
        "kernel_passes": {
            name: {"calls": int(bucket.get("calls", 0)),
                   "items": int(bucket.get("items", 0)),
                   "seconds": round(float(bucket.get("seconds", 0.0)),
                                    6)}
            for name, bucket in sorted(kernel_passes.items())},
        "robustness": {
            "retries": robustness.get("retries", 0),
            "pool_faults": robustness.get("pool_faults", 0),
            "degraded_to_serial":
                bool(robustness.get("degraded_to_serial")),
            "failed_cells": len(robustness.get("failed_cells") or []),
        },
    }
    record["checksum"] = _checksum(record)
    return record


try:
    import fcntl
except ImportError:  # pragma: no cover (non-POSIX)
    fcntl = None


def append_record(cache_dir: str,
                  record: Dict[str, object]) -> str:
    """Append one record to the run history; returns the path.

    Concurrent harness invocations (pool workers, parallel CLI runs)
    share one ``history.jsonl``, so the append must never interleave:
    the whole line goes down as a single ``write(2)`` on an
    ``O_APPEND`` descriptor, under an advisory ``flock`` where the
    platform has one.  A torn line would not crash the loader — it
    silently drops *both* writers' records from the trajectory — which
    is exactly why it must not happen.
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
    """``(records, skipped)`` from one history file, oldest first.
    Unparseable or checksum-failing lines are counted and skipped —
    a torn append never poisons the trajectory."""
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
    metrics = {_WALL: float(record.get("wall_s", 0.0))}
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
                 latest: Dict[str, object], window: int = 5,
                 any_fingerprint: bool = False
                 ) -> List[Dict[str, object]]:
    """The rolling baseline for *latest*: the newest *window* earlier
    records sharing its fingerprint (or any fingerprint, for gates
    against a committed baseline produced on other hardware)."""
    key = fingerprint(latest)
    pool = [record for record in records
            if record is not latest
            and (any_fingerprint or fingerprint(record) == key)]
    return pool[-window:]


# ---------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------


def render_history(records: Sequence[Dict[str, object]],
                   last: Optional[int] = None,
                   skipped: int = 0) -> str:
    if last is not None:
        records = records[-last:]
    if not records:
        text = "no history recorded (run an experiment first)"
        if skipped:
            text += "\n%d corrupt line%s skipped" % (
                skipped, "" if skipped == 1 else "s")
        return text
    lines = ["%-22s %-19s %8s %9s %5s %s" %
             ("run id", "started", "wall(s)", "instrs", "jobs",
              "experiments")]
    for record in records:
        config = record.get("config") or {}
        ids = config.get("experiments") or []
        shown = ",".join(ids[:8]) + ("..." if len(ids) > 8 else "")
        lines.append("%-22s %-19s %8.1f %9d %5s %s" % (
            record.get("run_id", "?"), record.get("started_at", "?"),
            float(record.get("wall_s", 0.0)),
            int(record.get("instructions", 0)),
            config.get("jobs", "?"), shown))
    lines.append("%d record%s" % (len(records),
                                  "" if len(records) == 1 else "s")
                 + (", %d corrupt line%s skipped" %
                    (skipped, "" if skipped == 1 else "s")
                    if skipped else ""))
    return "\n".join(lines)


def render_trend(records: Sequence[Dict[str, object]],
                 passes: Optional[Sequence[str]] = None,
                 last: Optional[int] = None) -> str:
    """Per-pass seconds across runs: one row per run, one column per
    kernel pass (newest run last) — the timing-table trajectory."""
    if last is not None:
        records = records[-last:]
    if not records:
        return "no history recorded (run an experiment first)"
    names: List[str] = []
    for record in records:
        for name in (record.get("kernel_passes") or {}):
            if name not in names:
                names.append(name)
    if passes:
        names = [name for name in names
                 if any(token in name for token in passes)]
    if not names:
        return "no kernel passes recorded in history"
    header = "%-22s %8s" % ("run id", "wall(s)")
    header += "".join(" %14s" % name[:14] for name in names)
    lines = [header]
    for record in records:
        table = record.get("kernel_passes") or {}
        row = "%-22s %8.1f" % (record.get("run_id", "?"),
                               float(record.get("wall_s", 0.0)))
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
