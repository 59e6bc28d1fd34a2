"""Idealized profile-based baseline (what a compiler could do).

The paper's closing argument is that dynamic prediction "mitigates the
need for good path profiling information": a compiler armed even with a
perfect profile can only remove instructions that are dead on
(essentially) *every* instance — removing a partially dead instruction
would break the executions where its value is used.  Since the
characterization (F2) shows the overwhelming majority of dead instances
come from partially dead statics, the profile approach has a low
coverage ceiling no matter how good the profile is.

:class:`ProfileDeadPredictor` makes that ceiling measurable: it is
granted a *perfect* profile of the very trace it is evaluated on and
eliminates every static instruction whose dead fraction meets the
threshold.  It is an idealized upper bound for static approaches, not
implementable hardware.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, List, Set

from repro import kernels
from repro.analysis.liveness import DeadnessAnalysis
from repro.predictors.dead.base import DeadPredictor

if TYPE_CHECKING:
    from repro.kernels.base import PredictionStream
    from repro.predictors.dead.paths import PathInfo


class ProfileDeadPredictor(DeadPredictor):
    """Eliminate statics that a (perfect) profile shows ≥ threshold
    dead — the ceiling of compile-time dead-code removal."""

    name = "profile"
    # The profile is the run's own analysis, which the trace key in a
    # ``predict`` stage key already covers.
    key_args = ("threshold",)

    def __init__(self, analysis: DeadnessAnalysis,
                 threshold: float = 0.999):
        self.analysis = analysis
        self.threshold = threshold

    @cached_property
    def always_dead(self) -> Set[int]:
        """The profiled-dead statics, built on first use: a cached
        evaluation never walks, so it never needs them."""
        totals = {}
        deads = {}
        # The profile is exactly the eligible-event stream the kernel
        # layer already extracted (and sweeps share across points).
        stream = kernels.prediction_stream_for(self.analysis)
        for pc, is_dead in zip(stream.eligible_pc, stream.eligible_dead):
            totals[pc] = totals.get(pc, 0) + 1
            if is_dead:
                deads[pc] = deads.get(pc, 0) + 1
        return {pc for pc, total in totals.items()
                if deads.get(pc, 0) / total >= self.threshold}

    def walk(self, stream: PredictionStream,
             paths: PathInfo) -> List[bool]:
        # The profile is fixed at "compile time": nothing to train.
        return list(map(self.always_dead.__contains__, stream.eligible_pc))

    def storage_bits(self) -> int:
        return 0  # encoded in the binary, no hardware state
