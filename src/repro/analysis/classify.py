"""Static-instruction classification and provenance attribution.

The paper's characterization hinges on two observations about *static*
instructions:

1. Most dead dynamic instances come from static instructions that also
   produce useful values ("partially dead" statics) — so compile-time
   dead-code elimination cannot remove them.
2. Compiler optimization, specifically speculative instruction
   scheduling, creates a significant portion of those partially dead
   statics (plus callee-save register spill code).

:func:`classify_statics` computes both: it buckets every value-producing
static instruction by how often its instances are dead, and attributes
dead instances to the compiler provenance tags recorded at code
generation time (``sched`` for hoisted instructions, ``callee-save``
for save/restore code, ``original`` for everything else).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

from repro import kernels
from repro.analysis.liveness import DeadnessAnalysis


class StaticClass(Enum):
    """Deadness class of one static instruction."""

    NEVER_DEAD = "never-dead"
    PARTIALLY_DEAD = "partially-dead"
    FULLY_DEAD = "fully-dead"


@dataclass
class ProvenanceBreakdown:
    """Dead dynamic instances attributed to their compiler origin."""

    by_tag: Dict[str, int] = field(default_factory=dict)
    total_dead: int = 0

    def fraction(self, tag: str) -> float:
        if self.total_dead == 0:
            return 0.0
        return self.by_tag.get(tag, 0) / self.total_dead


@dataclass
class StaticClassification:
    """Per-static deadness statistics for one analyzed trace."""

    #: static index -> (dynamic instances, dead instances)
    counts: Dict[int, Tuple[int, int]]
    #: static index -> StaticClass (only statics with >= 1 instance)
    classes: Dict[int, StaticClass]
    provenance: ProvenanceBreakdown

    n_static_executed: int = 0
    n_static_fully_dead: int = 0
    n_static_partially_dead: int = 0
    n_static_never_dead: int = 0

    n_dead_instances: int = 0
    n_dead_from_fully: int = 0
    n_dead_from_partial: int = 0

    @property
    def partial_share(self) -> float:
        """Fraction of dead instances from partially dead statics."""
        if self.n_dead_instances == 0:
            return 0.0
        return self.n_dead_from_partial / self.n_dead_instances

    def dead_counts_sorted(self) -> List[Tuple[int, int]]:
        """(static index, dead count) sorted by dead count, descending."""
        pairs = [(si, dead) for si, (_, dead) in self.counts.items() if dead]
        pairs.sort(key=lambda pair: (-pair[1], pair[0]))
        return pairs


def classify_statics(analysis: DeadnessAnalysis) -> StaticClassification:
    """Aggregate per-instance deadness labels up to static instructions.

    The per-static instance counters come from the fused backward pass
    when available (``analysis.fused``, no extra trace walk); analyses
    reconstructed from cached labels run the static-counts kernel.
    """
    statics = analysis.statics
    fused = getattr(analysis, "fused", None)
    if fused is not None:
        tallies = fused.counts
    else:
        decoded = kernels.decode(analysis.trace, statics)
        tallies = kernels.static_counts(decoded, analysis.dead)
    totals = tallies.totals
    deads = tallies.deads

    counts: Dict[int, Tuple[int, int]] = {}
    classes: Dict[int, StaticClass] = {}
    n_fully = n_partial = n_never = 0
    dead_from_fully = dead_from_partial = 0

    for si, total in totals.items():
        dead_count = deads.get(si, 0)
        counts[si] = (total, dead_count)
        # Only value-producing instructions (or stores) can be dead;
        # classify everything executed for completeness.
        if dead_count == 0:
            classes[si] = StaticClass.NEVER_DEAD
            n_never += 1
        elif dead_count == total:
            classes[si] = StaticClass.FULLY_DEAD
            n_fully += 1
            dead_from_fully += dead_count
        else:
            classes[si] = StaticClass.PARTIALLY_DEAD
            n_partial += 1
            dead_from_partial += dead_count

    by_tag: Dict[str, int] = {}
    total_dead = 0
    provenance = statics.provenance
    for si, dead_count in deads.items():
        tag = provenance[si] or "original"
        by_tag[tag] = by_tag.get(tag, 0) + dead_count
        total_dead += dead_count

    return StaticClassification(
        counts=counts,
        classes=classes,
        provenance=ProvenanceBreakdown(by_tag=by_tag, total_dead=total_dead),
        n_static_executed=len(totals),
        n_static_fully_dead=n_fully,
        n_static_partially_dead=n_partial,
        n_static_never_dead=n_never,
        n_dead_instances=total_dead,
        n_dead_from_fully=dead_from_fully,
        n_dead_from_partial=dead_from_partial,
    )
