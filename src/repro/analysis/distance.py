"""Kill distances: how far away a dead value's overwriter is.

A predicted-dead instruction is *verified* when a younger instruction
renames over its destination (DESIGN.md §5.6), so the dynamic distance
from a dead write to its killer decides whether verification happens
inside the machine's window. This pass measures that distance for
every dead register-writing instance: ``kill distance = (dynamic index
of the overwriting write) − (dynamic index of the dead write)``, in
committed instructions. Dead instances whose destination is never
rewritten before program end get distance ``None`` (they also cannot
verify — the timeout/replay path handles them).

The distribution explains two design points:

* scheduler-hoisted temporaries die a handful of instructions before
  their next-iteration selves — comfortably inside any ROB;
* callee-save restores die hundreds of instructions before the next
  function touches that register — structurally outside the window,
  which is what the elimination engine's strike filter learns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import kernels
from repro.analysis.liveness import DeadnessAnalysis


@dataclass
class KillDistanceStats:
    """Distribution of kill distances for one analyzed trace."""

    #: distances of dead register writes that are eventually rewritten
    distances: List[int] = field(default_factory=list)
    #: dead writes never rewritten before program end
    unkilled: int = 0
    #: distances bucketed by compiler provenance tag
    by_provenance: Dict[str, List[int]] = field(default_factory=dict)

    def percentile(self, fraction: float) -> Optional[int]:
        if not self.distances:
            return None
        ordered = sorted(self.distances)
        index = min(len(ordered) - 1,
                    int(fraction * (len(ordered) - 1)))
        return ordered[index]

    def within(self, window: int) -> float:
        """Fraction of killed dead writes whose killer is within
        *window* dynamic instructions."""
        if not self.distances:
            return 0.0
        return sum(1 for d in self.distances if d <= window) \
            / len(self.distances)


def kill_distances(analysis: DeadnessAnalysis) -> KillDistanceStats:
    """Measure the killer distance of every dead register write.

    Freshly analyzed traces carry the kill columns from the fused
    backward pass (``analysis.fused``) and pay nothing here; analyses
    reconstructed from cached labels run the standalone kill-distance
    kernel.  Either way distances come back in canonical victim order
    (ascending dynamic index of the dead write).
    """
    fused = getattr(analysis, "fused", None)
    if fused is not None:
        kills = fused.kills
    else:
        decoded = kernels.decode(analysis.trace, analysis.statics)
        kills = kernels.kill_distances(decoded, analysis.dead)
    # Copy: callers may mutate their stats; the fused columns are shared.
    return KillDistanceStats(
        distances=list(kills.distances),
        unkilled=kills.unkilled,
        by_provenance={tag: list(values)
                       for tag, values in kills.by_provenance.items()})
