"""Kernel contract, result columns, backend registry, pass timings.

A *kernel* is one hot walk over a committed trace's structure-of-arrays
columns.  Every backend implements the same kernels over the same
:class:`DecodedTrace` (the decoded micro-op table: the per-program
:class:`~repro.analysis.statics.StaticTable` plus the precomputed
static-index column for the whole trace) and must produce **canonical,
byte-identical** results:

* ``static_indices`` — the decode kernel (pc stream → static indices);
* ``fused``          — one backward pass computing deadness labels,
  kill distances, and per-static instance counters together;
* ``deadness``       — the deadness subset of ``fused`` (three-pass
  comparison baseline and ``track_stores`` variants);
* ``static_counts`` / ``kill_distances`` — label-consuming walks for
  analyses reconstructed from cached deadness labels;
* ``prediction_stream`` — the per-PC event stream (eligible instances
  and conditional branches) that predictor evaluation walks.

Canonical-form rules (what "byte-identical" means across backends):
kill distances are ordered by the *dead write's* dynamic index
(ascending), ``by_provenance`` tags and per-static counter keys are
sorted ascending, and every column has the exact element types the
reference backend produces (``bool`` labels, ``int`` counters).

Every kernel invocation is timed: the per-pass wall time feeds the
module-level accumulator (:func:`pass_totals`, used by the kernel
benchmarks) and — when telemetry is on — a ``kernel:<pass>`` span plus
``repro_kernel_pass_*`` metrics, so fused-pass savings are visible in
``obs report`` / ``obs hotspots`` next to the stage spans.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs

__all__ = [
    "DeadnessColumns",
    "DecodedTrace",
    "FusedColumns",
    "KernelBackend",
    "KillColumns",
    "PredictionStream",
    "StaticCounts",
    "available_backends",
    "backend_fingerprint",
    "default_backend_name",
    "get_backend",
    "pass_totals",
    "register_backend",
    "reset_pass_totals",
    "set_default_backend",
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
    #: dynamic index (canonical across backends)
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
#: the kernel benchmarks read (always on — one dict update per kernel
#: *call*, never per element).
_PASS_TOTALS: Dict[str, Dict[str, float]] = {}


def pass_totals() -> Dict[str, Dict[str, float]]:
    """Accumulated per-pass timings since the last reset."""
    return {name: dict(bucket) for name, bucket in _PASS_TOTALS.items()}


def reset_pass_totals() -> None:
    _PASS_TOTALS.clear()


def _record_pass(backend: str, name: str, items: int,
                 seconds: float) -> None:
    bucket = _PASS_TOTALS.setdefault(
        name, {"calls": 0, "items": 0, "seconds": 0.0})
    bucket["calls"] += 1
    bucket["items"] += items
    bucket["seconds"] += seconds
    collector = obs.get_collector()
    if collector is None:
        return
    collector.tracer.add("kernel:%s" % name, seconds, backend=backend,
                         items=items)
    collector.registry.counter(
        "repro_kernel_pass_total", "kernel pass executions",
        kernel=name, backend=backend).inc()
    collector.registry.counter(
        "repro_kernel_pass_items_total",
        "dynamic items walked by kernel passes",
        kernel=name, backend=backend).inc(items)
    collector.registry.histogram(
        "repro_kernel_pass_seconds", "kernel pass wall time",
        kernel=name, backend=backend).observe(seconds)


class KernelBackend:
    """One implementation of the trace kernels (see module docstring).

    Subclasses implement the ``_``-prefixed methods; the public methods
    add the pass timing shared by every backend.
    """

    name = "abstract"

    # -- public, timed entry points -----------------------------------

    def static_indices(self, trace) -> Sequence[int]:
        started = time.perf_counter()
        result = self._static_indices(trace)
        _record_pass(self.name, "decode", len(result),
                     time.perf_counter() - started)
        return result

    def fused(self, decoded: DecodedTrace,
              track_stores: bool = True) -> FusedColumns:
        started = time.perf_counter()
        result = self._fused(decoded, track_stores)
        _record_pass(self.name, "fused", len(decoded),
                     time.perf_counter() - started)
        return result

    def deadness(self, decoded: DecodedTrace,
                 track_stores: bool = True) -> DeadnessColumns:
        started = time.perf_counter()
        result = self._deadness(decoded, track_stores)
        _record_pass(self.name, "deadness", len(decoded),
                     time.perf_counter() - started)
        return result

    def static_counts(self, decoded: DecodedTrace,
                      dead: Sequence[bool]) -> StaticCounts:
        started = time.perf_counter()
        result = self._static_counts(decoded, dead)
        _record_pass(self.name, "static-counts", len(decoded),
                     time.perf_counter() - started)
        return result

    def kill_distances(self, decoded: DecodedTrace,
                       dead: Sequence[bool]) -> KillColumns:
        started = time.perf_counter()
        result = self._kill_distances(decoded, dead)
        _record_pass(self.name, "kill-distance", len(decoded),
                     time.perf_counter() - started)
        return result

    def prediction_stream(self, decoded: DecodedTrace,
                          dead: Sequence[bool]) -> PredictionStream:
        started = time.perf_counter()
        result = self._prediction_stream(decoded, dead)
        _record_pass(self.name, "prediction-stream", result.n_events,
                     time.perf_counter() - started)
        return result

    # -- backend implementations --------------------------------------

    def _static_indices(self, trace) -> Sequence[int]:
        raise NotImplementedError

    def _fused(self, decoded: DecodedTrace,
               track_stores: bool) -> FusedColumns:
        raise NotImplementedError

    def _deadness(self, decoded: DecodedTrace,
                  track_stores: bool) -> DeadnessColumns:
        raise NotImplementedError

    def _static_counts(self, decoded: DecodedTrace,
                       dead: Sequence[bool]) -> StaticCounts:
        raise NotImplementedError

    def _kill_distances(self, decoded: DecodedTrace,
                        dead: Sequence[bool]) -> KillColumns:
        raise NotImplementedError

    def _prediction_stream(self, decoded: DecodedTrace,
                           dead: Sequence[bool]) -> PredictionStream:
        raise NotImplementedError


# ---------------------------------------------------------------------
# Canonicalization helpers shared by the backends
# ---------------------------------------------------------------------


def canonical_kills(pairs: List[Tuple[int, int, str]],
                    unkilled: int) -> KillColumns:
    """Build :class:`KillColumns` from ``(victim, distance, tag)``
    triples in victim-ascending order (caller guarantees the order)."""
    distances = [distance for _victim, distance, _tag in pairs]
    grouped: Dict[str, List[int]] = {}
    for _victim, distance, tag in pairs:
        grouped.setdefault(tag, []).append(distance)
    by_provenance = {tag: grouped[tag] for tag in sorted(grouped)}
    return KillColumns(distances=distances, unkilled=unkilled,
                       by_provenance=by_provenance)


def canonical_counts(totals: Dict[int, int],
                     deads: Dict[int, int]) -> StaticCounts:
    """Sort counter keys ascending (the canonical form)."""
    return StaticCounts(
        totals={si: totals[si] for si in sorted(totals)},
        deads={si: deads[si] for si in sorted(deads)})


# ---------------------------------------------------------------------
# Registry and selection
# ---------------------------------------------------------------------

_BACKENDS: Dict[str, KernelBackend] = {}
_DEFAULT: Optional[str] = None


def register_backend(backend: KernelBackend) -> KernelBackend:
    _BACKENDS[backend.name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def set_default_backend(name: Optional[str]) -> None:
    """Pin the process-default backend (``None`` restores env/default
    resolution).  The harness engine applies its configured backend
    here so pool workers and cache keys always agree."""
    global _DEFAULT
    if name:
        if name not in _BACKENDS:
            raise KeyError("unknown kernel backend %r (have: %s)" %
                           (name, ", ".join(available_backends())))
        _DEFAULT = name
    else:
        _DEFAULT = None


def default_backend_name() -> str:
    """The active backend name: pinned > ``REPRO_BACKEND`` > python."""
    if _DEFAULT:
        return _DEFAULT
    return os.environ.get("REPRO_BACKEND", "") or "python"


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve a backend by name (default: the active backend)."""
    resolved = name or default_backend_name()
    backend = _BACKENDS.get(resolved)
    if backend is None:
        raise KeyError("unknown kernel backend %r (have: %s)" %
                       (resolved, ", ".join(available_backends())))
    return backend


def backend_fingerprint(name: Optional[str] = None) -> str:
    """The cache-key salt component: entries produced under different
    backends must never collide (`docs/architecture.md`), even though
    their contents are byte-identical by contract."""
    return "kernel-backend:%s" % (name or default_backend_name())
