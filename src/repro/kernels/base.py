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

When telemetry is on, every kernel call is recorded once
(:func:`timed_pass`) as a ``kernel:<pass>`` span carrying its wall time
and the number of items it walked — the only record of kernel passes:
``obs report`` / ``obs hotspots`` and the run history's per-pass table
(``obs.history.kernel_pass_table``) aggregate these spans, so
fused-pass savings are visible next to the stage spans.  With
telemetry off a kernel call is not timed at all.
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

def timed_pass(name: str, items: Callable[[object, object], int]):
    """Decorate a kernel so each call under telemetry is recorded once
    as a ``kernel:<name>`` span; ``items(first_argument, result)``
    counts what the call walked."""
    span_name = "kernel:%s" % name

    def decorate(kernel):
        @functools.wraps(kernel)
        def timed(first, *args, **kwargs):
            collector = obs.get_collector()
            if collector is None:
                return kernel(first, *args, **kwargs)
            started = time.perf_counter()
            result = kernel(first, *args, **kwargs)
            collector.tracer.add(span_name,
                                 time.perf_counter() - started,
                                 items=items(first, result))
            return result

        return timed

    return decorate
