"""Run records: one checksummed JSON line per harness run.

Every ``repro-harness`` run that executes experiments or run tables
(and any embedding that opts in) appends one record to the run log
``<cache>/runs/history.jsonl`` (:mod:`repro.obs.history`)::

    {
      "schema": 2,
      "run_id": "20260805-141502-1234-1",
      "started_at": "2026-08-05T14:15:02",
      "argv": ["F7", "F8", "--jobs", "4"],
      "scale": 1.0,
      "host": {"platform": "...", "python": "3.11.x", "cpu_count": 8},
      "engine": {"jobs": 4, "cache": true, "cache_dir": "..."},
      "experiments": [
        {"id": "F7", "wall_s": 3.21, "instructions": 440123,
         "stages": {"compile": {"hits": 10, "misses": 0, "seconds": 0.0},
                    "trace":   {...}, "analysis": {...},
                    "paths": {...}, "timing": {...}}},
        ...
      ],
      "totals": {"wall_s": ..., "stages": {...}, "instructions": ...},
      "kernel_passes": {"deadness": {"calls": 20, "items": 226842,
                                     "seconds": 0.0098}, ...},
      "robustness": {"retries": 0, "pool_faults": 0,
                     "degraded_to_serial": false, "failed_cells": [],
                     "faults_injected": {}, "cache": {...}},
      "checksum": "<sha256 of the rest>"
    }

``wall_s`` is per-experiment wall time; ``stages`` are the engine's
per-stage cache hit/miss counts and compute seconds *attributed to that
experiment* (snapshot deltas), so a hot-cache rerun shows zero compile
and trace misses.  ``kernel_passes`` is aggregated from the run's
``kernel:<pass>`` spans, so it is ``{}`` for a run without telemetry.
A run-table run (``table run|export``) adds ``repetitions`` and
``run_tables``; an observed run adds ``obs`` (the artifact names under
``<cache>/runs/obs-<run id>/``).  ``repro-harness runs`` summarizes
the records.
"""

from __future__ import annotations

import itertools
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import history

SCHEMA = 2

#: makes run ids unique within a process (two runs can start in one
#: second); the pid makes them unique across processes
_RUN_COUNTER = itertools.count(1)


def host_info() -> Dict[str, object]:
    """Enough host detail to interpret wall times later."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def _new_run_id() -> str:
    return "%s-%d-%d" % (time.strftime("%Y%m%d-%H%M%S"), os.getpid(),
                         next(_RUN_COUNTER))


@dataclass
class RunRecorder:
    """Accumulates the record of one harness invocation."""

    argv: List[str] = field(default_factory=list)
    engine_info: Dict[str, object] = field(default_factory=dict)
    scale: float = 1.0
    #: seed repetitions of a run-table run (``None``: an experiment run)
    repetitions: Optional[int] = None
    run_id: str = field(default_factory=_new_run_id)
    started_at: str = field(
        default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S"))
    experiments: List[Dict[str, object]] = field(default_factory=list)
    #: declarative run-table executions (``repro-harness table run``):
    #: one record per table with its cell count, repetitions, and
    #: measurement wall time
    tables: List[Dict[str, object]] = field(default_factory=list)
    #: per-pass ``{calls, items, seconds}`` from the run's
    #: ``kernel:<pass>`` spans (:func:`repro.obs.history.kernel_pass_table`)
    kernel_passes: Dict[str, Dict[str, float]] = field(
        default_factory=dict)
    #: for runs executed with telemetry on: ``{"artifacts": [...]}``,
    #: the files under ``<cache>/runs/obs-<run id>/`` — see
    #: ``repro.obs`` and the ``obs`` CLI
    obs: Optional[Dict[str, object]] = None
    #: robustness summary (``Engine.robustness()``): retries, pool
    #: faults, serial degradation, cache store-error/quarantine
    #: counts, injected faults, and cells dropped in partial mode
    robustness: Optional[Dict[str, object]] = None

    def record(self, experiment_id: str, wall_s: float,
               stage_delta: Dict[str, Dict[str, object]],
               instructions: int) -> None:
        self.experiments.append({
            "id": experiment_id,
            "wall_s": round(wall_s, 3),
            "instructions": instructions,
            "stages": stage_delta,
        })

    def record_table(self, table_id: str, cells: int,
                     repetitions: int, seconds: float) -> None:
        self.tables.append({
            "id": table_id,
            "cells": cells,
            "repetitions": repetitions,
            "seconds": round(seconds, 3),
        })

    def document(self) -> Dict[str, object]:
        """The run record, without its checksum."""
        totals_stages: Dict[str, Dict[str, float]] = {}
        for record in self.experiments:
            for stage, counts in record["stages"].items():
                bucket = totals_stages.setdefault(
                    stage, {"hits": 0, "misses": 0, "seconds": 0.0})
                bucket["hits"] += counts.get("hits", 0)
                bucket["misses"] += counts.get("misses", 0)
                bucket["seconds"] = round(
                    bucket["seconds"] + counts.get("seconds", 0.0), 3)
        document = {
            "schema": SCHEMA,
            "run_id": self.run_id,
            "started_at": self.started_at,
            "argv": list(self.argv),
            "scale": self.scale,
            "host": host_info(),
            "engine": dict(self.engine_info),
            "experiments": list(self.experiments),
            "totals": {
                "wall_s": round(sum(r["wall_s"]
                                    for r in self.experiments), 3),
                "instructions": sum(r["instructions"]
                                    for r in self.experiments),
                "stages": totals_stages,
            },
            "kernel_passes": {
                name: {"calls": bucket["calls"],
                       "items": bucket["items"],
                       "seconds": round(bucket["seconds"], 6)}
                for name, bucket in sorted(self.kernel_passes.items())},
        }
        if self.repetitions is not None:
            document["repetitions"] = self.repetitions
        if self.tables:
            document["run_tables"] = list(self.tables)
        if self.obs:
            document["obs"] = dict(self.obs)
        if self.robustness is not None:
            document["robustness"] = dict(self.robustness)
        return document

    def write(self, cache_dir: str) -> str:
        """Append the record to the run log under *cache_dir*; returns
        the log's path."""
        return history.append_record(cache_dir, self.document())


def summarize_runs(documents: List[Dict[str, object]]) -> str:
    """A human-readable table over run records (newest last)."""
    if not documents:
        return "no recorded runs"
    lines = ["%-24s %-19s %5s %8s %9s %9s %s" %
             ("run id", "started", "exps", "wall(s)",
              "hit/miss", "instrs", "experiments")]
    for doc in documents:
        totals = doc.get("totals", {})
        stages = totals.get("stages", {})
        hits = sum(c.get("hits", 0) for c in stages.values())
        misses = sum(c.get("misses", 0) for c in stages.values())
        ids = [r.get("id", "?") for r in doc.get("experiments", [])]
        shown = ",".join(ids[:8]) + ("..." if len(ids) > 8 else "")
        lines.append("%-24s %-19s %5d %8.1f %9s %9d %s" % (
            doc.get("run_id", "?"), doc.get("started_at", "?"),
            len(ids), totals.get("wall_s", 0.0),
            "%d/%d" % (hits, misses),
            totals.get("instructions", 0), shown))
    return "\n".join(lines)
