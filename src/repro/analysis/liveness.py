"""Exact dynamic deadness: the backward dataflow pass over a trace.

Definitions (following the paper):

* A dynamic instance is **directly dead** when the value it produces is
  never read at all — its destination register is overwritten before
  any consumer reads it (or, for the memory variant, the stored word is
  overwritten by another store before any load).
* A dynamic instance is **transitively dead** when its value *is* read,
  but only by instructions that are themselves dead.
* ``dead = directly dead ∪ transitively dead``.  Instructions with side
  effects (stores to live locations, branches, jumps, syscalls) are
  roots of usefulness and can never be dead; by default plain stores
  participate fully (a store overwritten before any load is dead, and a
  store feeding only dead loads is transitively dead).

Conservative boundary conditions, matching what real hardware could
ever know:

* values still unread when the program halts are treated as **live**;
* byte stores only partially overwrite a word, so they never kill the
  word's liveness and are themselves always treated as live (the
  analysis tracks memory at word granularity).

The implementation is a single backward pass over the trace, O(dynamic
instructions), using per-register liveness flags and a word-granular
memory liveness map.  Because consumers appear after producers in the
trace, one backward pass computes transitive deadness exactly.

The pass itself lives in the kernel layer (:func:`repro.kernels.fused`)
and runs *fused*: kill distances and per-static instance counters are
computed in the same backward walk, so
:func:`~repro.analysis.distance.kill_distances` and
:func:`~repro.analysis.classify.classify_statics` on a freshly analyzed
trace cost no extra pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import kernels
from repro.analysis.statics import StaticTable
from repro.emulator.trace import Trace
from repro.kernels.base import FusedColumns


@dataclass
class DeadnessAnalysis:
    """Per-instance deadness labels and summary counts for one trace."""

    trace: Trace
    statics: StaticTable
    #: Per dynamic instruction: is it dynamically dead?
    dead: List[bool] = field(default_factory=list)
    #: Per dynamic instruction: is it *directly* dead (value never read)?
    direct: List[bool] = field(default_factory=list)

    n_dynamic: int = 0
    n_eligible: int = 0
    n_dead: int = 0
    n_direct: int = 0
    n_transitive: int = 0
    n_dead_stores: int = 0

    #: Extra columns from the fused backward pass (kill distances,
    #: per-static counters); present on freshly analyzed traces, absent
    #: on analyses reconstructed from cached deadness labels (consumers
    #: fall back to the granular kernels).
    fused: Optional[FusedColumns] = field(
        default=None, compare=False, repr=False)

    @property
    def dead_fraction(self) -> float:
        """Fraction of all committed instructions that are dead."""
        if self.n_dynamic == 0:
            return 0.0
        return self.n_dead / self.n_dynamic

    @property
    def direct_fraction(self) -> float:
        if self.n_dynamic == 0:
            return 0.0
        return self.n_direct / self.n_dynamic

    def summary(self) -> str:
        return ("dynamic=%d dead=%d (%.2f%%: direct=%d transitive=%d) "
                "dead-stores=%d" % (
                    self.n_dynamic, self.n_dead,
                    100.0 * self.dead_fraction,
                    self.n_direct, self.n_transitive, self.n_dead_stores))


def analyze_deadness(trace: Trace, statics: StaticTable = None,
                     track_stores: bool = True) -> DeadnessAnalysis:
    """Label every dynamic instruction in *trace* as dead or live.

    *track_stores* controls whether word stores participate in deadness
    (both as killable instructions and as a channel for transitive
    deadness through memory); when False every store is a usefulness
    root, which matches configurations where store elimination is
    disabled.
    """
    if statics is None:
        statics = StaticTable(trace.program)

    decoded = kernels.decode(trace, statics)
    fused = kernels.fused(decoded, track_stores=track_stores)
    columns = fused.deadness

    result = DeadnessAnalysis(trace=trace, statics=statics)
    result.dead = columns.dead
    result.direct = columns.direct
    result.n_dynamic = len(decoded)
    result.n_eligible = columns.n_eligible
    result.n_dead = columns.n_dead
    result.n_direct = columns.n_direct
    result.n_transitive = columns.n_dead - columns.n_direct
    result.n_dead_stores = columns.n_dead_stores
    result.fused = fused
    return result
