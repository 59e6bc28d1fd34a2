"""Kernel result columns and pass timings.

A *kernel* is one hot walk over a committed trace's structure-of-arrays
columns (:mod:`repro.kernels.ref` holds the walks).  Every walk reads
the same :class:`DecodedTrace` (the decoded micro-op table: the
per-program :class:`~repro.analysis.statics.StaticTable` plus the
precomputed static-index column for the whole trace) and returns the
columns defined here in **canonical** form: kill distances are ordered
by the *dead write's* dynamic index (ascending), ``by_provenance`` tags
and per-static counter keys are sorted ascending, labels are ``bool``
and counters ``int``.  Canonical form is what lets the fused pass and
the granular walks be compared, and cached results be compared with
fresh ones, by pickle equality.

Every kernel call is timed once (:func:`timed_pass`): the per-pass wall
time feeds the module-level accumulator (:func:`pass_totals`, the
fallback of ``obs.history.kernel_pass_table``) and, when telemetry is
on, a ``kernel:<pass>`` span plus ``repro_kernel_pass_*`` metrics, so
fused-pass savings are visible in ``obs report`` / ``obs hotspots``
next to the stage spans.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro import obs

__all__ = [
    "DeadnessColumns",
    "DecodedTrace",
    "FusedColumns",
    "KillColumns",
    "PredictionStream",
    "StaticCounts",
    "pass_totals",
    "reset_pass_totals",
    "timed_pass",
]


# ---------------------------------------------------------------------
# Result columns (the kernel contract's output types)
# ---------------------------------------------------------------------


@dataclass
class DecodedTrace:
    """The decoded micro-op table for one trace: the program's static
    facts plus the static index of every dynamic instruction."""

    trace: object
    statics: object
    #: static index per dynamic instruction (the decode column)
    sidx: Sequence[int]

    def __len__(self) -> int:
        return len(self.sidx)


@dataclass
class DeadnessColumns:
    """Per-instance deadness labels plus the summary counters."""

    dead: List[bool]
    direct: List[bool]
    n_eligible: int = 0
    n_dead: int = 0
    n_direct: int = 0
    n_dead_stores: int = 0


@dataclass
class KillColumns:
    """Kill distances of dead register writes, victim-ascending."""

    #: distance to the overwriting write, ordered by the dead write's
    #: dynamic index (the canonical order)
    distances: List[int] = field(default_factory=list)
    unkilled: int = 0
    #: provenance tag -> distances (tags sorted, victim-ascending)
    by_provenance: Dict[str, List[int]] = field(default_factory=dict)


@dataclass
class StaticCounts:
    """Per-static dynamic-instance counters (keys sorted ascending)."""

    #: static index -> dynamic instances
    totals: Dict[int, int] = field(default_factory=dict)
    #: static index -> dead instances (only statics with >= 1)
    deads: Dict[int, int] = field(default_factory=dict)


@dataclass
class FusedColumns:
    """Everything the fused backward pass produces in one walk."""

    deadness: DeadnessColumns
    kills: KillColumns
    counts: StaticCounts


@dataclass
class PredictionStream:
    """The per-PC event stream predictor evaluation walks.

    Two position-sorted event lists replace the full-trace scan: the
    *eligible* instances (the population every dead predictor is
    consulted on) and the conditional branches (which the
    history-based design's walk merges in, in dynamic order).  A sweep
    builds the stream once per trace and every sweep point's
    ``DeadPredictor.walk`` visits only the events.
    """

    #: dynamic indices of eligible instructions, ascending
    eligible_index: List[int] = field(default_factory=list)
    #: pc per eligible instruction (parallel to ``eligible_index``)
    eligible_pc: List[int] = field(default_factory=list)
    #: deadness label per eligible instruction
    eligible_dead: List[bool] = field(default_factory=list)
    #: dynamic indices of conditional branches, ascending
    branch_index: List[int] = field(default_factory=list)
    #: resolved outcome per conditional branch
    branch_taken: List[bool] = field(default_factory=list)

    @property
    def n_events(self) -> int:
        return len(self.eligible_index) + len(self.branch_index)


# ---------------------------------------------------------------------
# Pass timing
# ---------------------------------------------------------------------

#: pass name -> {"calls", "items", "seconds"}; per-process accumulator
#: (always on — one dict update per kernel *call*, never per element).
_PASS_TOTALS: Dict[str, Dict[str, float]] = {}


def pass_totals() -> Dict[str, Dict[str, float]]:
    """Accumulated per-pass timings since the last reset."""
    return {name: dict(bucket) for name, bucket in _PASS_TOTALS.items()}


def reset_pass_totals() -> None:
    _PASS_TOTALS.clear()


def _record_pass(name: str, items: int, seconds: float) -> None:
    bucket = _PASS_TOTALS.setdefault(
        name, {"calls": 0, "items": 0, "seconds": 0.0})
    bucket["calls"] += 1
    bucket["items"] += items
    bucket["seconds"] += seconds
    collector = obs.get_collector()
    if collector is None:
        return
    collector.tracer.add("kernel:%s" % name, seconds, items=items)
    collector.registry.counter(
        "repro_kernel_pass_total", "kernel pass executions",
        kernel=name).inc()
    collector.registry.counter(
        "repro_kernel_pass_items_total",
        "dynamic items walked by kernel passes",
        kernel=name).inc(items)
    collector.registry.histogram(
        "repro_kernel_pass_seconds", "kernel pass wall time",
        kernel=name).observe(seconds)


def timed_pass(name: str, items: Callable[[object, object], int]):
    """Decorate a kernel so each call is recorded once as pass *name*;
    ``items(first_argument, result)`` counts what the call walked."""

    def decorate(kernel):
        @functools.wraps(kernel)
        def timed(first, *args, **kwargs):
            started = time.perf_counter()
            result = kernel(first, *args, **kwargs)
            _record_pass(name, items(first, result),
                         time.perf_counter() - started)
            return result

        return timed

    return decorate
