"""Dead-instruction elimination state (the paper's mechanism).

The :class:`EliminationEngine` owns everything the hardware scheme adds
to the core: the path-refined dead predictor, the per-run blacklist of
dynamic instances that caused a recovery (the hardware analogue is the
confidence clear performed on recovery — the blacklist additionally
guarantees forward progress on immediate re-fetch), the per-static
recovery strikes, and the predicted/actual future-path signatures the
predictor consumes.

The core reads the engine as columns, not through per-instruction
calls.  At rename it checks the blacklist and the strikes, then reads
the predictor's ``tags``/``confs`` at the slot built from
:attr:`~EliminationEngine.slot_base` (per static instruction) and
:attr:`~EliminationEngine.predicted_path` (per dynamic instruction).
At commit it trains the same table inline along
:attr:`~EliminationEngine.actual_path` with the exact liveness label
:attr:`~EliminationEngine.dead_labels`, standing in for the hardware's
read/overwrite tracking (DESIGN.md §2).  The rare events stay methods:
:meth:`~EliminationEngine.note_success` on a verified eliminated
commit, :meth:`~EliminationEngine.note_recovery` when a consumer read
or a verification timeout squashes a predicted-dead instruction, and
:meth:`~EliminationEngine.decay_strikes` every ~1K commits.

The path columns depend on the trace and the branch-predictor and
path-width settings only, so :func:`path_columns` computes them once
per analysis and every run of a sweep reuses them.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Set, Tuple

from repro.analysis.liveness import DeadnessAnalysis
from repro.pipeline.config import MachineConfig
from repro.predictors.branch import GshareBranchPredictor
from repro.predictors.dead.paths import compute_paths
from repro.predictors.dead.table import PathDeadPredictor


def _compact(values: List[int], bits: int) -> Sequence[int]:
    """*values*, each below ``1 << bits``, one byte apiece when they fit."""
    return bytes(values) if bits <= 8 else array("L", values)


def path_columns(analysis: DeadnessAnalysis,
                 config: MachineConfig) -> Tuple[Sequence[int],
                                                 Sequence[int]]:
    """The predicted and actual future-path signature of every dynamic
    instruction of *analysis*'s trace.

    Memoized on *analysis* per (gshare entries, gshare history, path
    bits), the inputs the signatures depend on, as ``_path_columns``
    (the way :func:`repro.kernels.prediction_stream_for` keeps its
    stream); the analysis is never pickled into a cache entry.
    """
    path_bits = config.dead_predictor.path_bits
    key = (config.gshare_entries, config.gshare_history, path_bits)
    memo = getattr(analysis, "_path_columns", None)
    if memo is None:
        memo = analysis._path_columns = {}
    columns = memo.get(key)
    if columns is None:
        paths = compute_paths(
            analysis.trace, analysis.statics, path_bits=path_bits,
            branch_predictor=GshareBranchPredictor(config.gshare_entries,
                                                   config.gshare_history))
        columns = memo[key] = (_compact(paths.predicted, path_bits),
                               _compact(paths.actual, path_bits))
    return columns


class EliminationEngine:
    """Predictor, columns and recovery bookkeeping for one run."""

    def __init__(self, config: MachineConfig, analysis: DeadnessAnalysis,
                 max_strikes: int = 3):
        predictor_config = config.dead_predictor
        self.predictor = PathDeadPredictor(
            entries=predictor_config.entries,
            tag_bits=predictor_config.tag_bits,
            path_bits=predictor_config.path_bits,
            conf_bits=predictor_config.conf_bits,
            threshold=predictor_config.threshold,
        )
        #: per dynamic instruction: the path signature rename looks up
        #: and the one commit trains
        self.predicted_path, self.actual_path = path_columns(analysis,
                                                             config)
        #: per static instruction: the index bits and tag of its pc
        #: (:meth:`PathDeadPredictor.pc_fields`)
        self.slot_base, self.slot_tag = self.predictor.pc_fields(
            [instruction.pc
             for instruction in analysis.statics.program.instructions])
        self.dead_labels: List[bool] = analysis.dead
        self._static_index = analysis.trace.static_indices()
        self.blacklist: Set[int] = set()
        #: recovery strikes per static pc: +2 on a recovery, -1 on a
        #: successful verified elimination.  A static whose recovery
        #: *rate* stays above ~1/3 (typically because its kill distance
        #: exceeds the machine's window, e.g. callee-save restores)
        #: saturates the counter and is disabled; well-behaved statics
        #: decay back to zero.  Hardware: a small up/down counter per
        #: predictor entry.  The core holds this dict, so it is only
        #: ever changed in place.
        self.strikes: dict = {}
        self.max_strikes = max_strikes
        self.strike_increment = 2
        self.strike_ceiling = 2 * max_strikes

    def note_success(self, pc: int) -> None:
        """An eliminated instance committed verified: decay strikes."""
        strikes = self.strikes.get(pc, 0)
        if strikes:
            self.strikes[pc] = strikes - 1

    def decay_strikes(self) -> None:
        """Periodic aging (the core calls this every ~1K commits): a
        disabled static earns no successes, so without aging the
        disabled state would be absorbing — one cold-start double fault
        would lock an otherwise profitable static out forever."""
        strikes = self.strikes
        for pc, count in list(strikes.items()):
            if count > 1:
                strikes[pc] = count - 1
            else:
                del strikes[pc]

    def note_recovery(self, tidx: int, pc: int) -> None:
        """A prediction for *tidx* forced a recovery: clear confidence
        (train live), record a strike against the static instruction,
        and pin this instance to execute on re-fetch."""
        self.blacklist.add(tidx)
        self.strikes[pc] = min(self.strikes.get(pc, 0)
                               + self.strike_increment,
                               self.strike_ceiling)
        # A live outcome clears the entry along the resolved path on a
        # tag hit and allocates nothing on a miss.
        predictor = self.predictor
        sidx = self._static_index[tidx]
        slot = self.slot_base[sidx] ^ (self.actual_path[tidx]
                                       << predictor.path_shift)
        if predictor.tags[slot] == self.slot_tag[sidx]:
            predictor.confs[slot] = 0
