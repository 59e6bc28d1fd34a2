"""The dead-instruction predictor designs.

All table predictors are direct-mapped and tagged; sizes are powers of
two and the hardware budget is ``entries * entry_bits``.  See
DESIGN.md §5.4 for the update policy rationale: dead-instruction
mispredictions (predicting dead when live) force a pipeline recovery,
so confidence clears instantly on a live outcome along the learned
path, while coverage builds with a small saturating counter.

Each design states its rule once, as the loop of its :meth:`walk`, with
the slot and tag arithmetic inline.  :class:`PathDeadPredictor` states
its slot/tag layout in :meth:`~PathDeadPredictor.pc_fields`, which its
walk and the timing simulator's elimination engine share; the
simulator does the lookup at rename and the training at commit inline,
over those fields and its precomputed path columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.predictors.dead.base import DeadPredictor

if TYPE_CHECKING:
    from repro.kernels.base import PredictionStream
    from repro.predictors.dead.paths import PathInfo


def _check_power_of_two(entries: int) -> None:
    if entries <= 0 or entries & (entries - 1):
        raise ValueError("entries must be a positive power of two")


class PathDeadPredictor(DeadPredictor):
    """The paper's predictor: indexed by PC *and* future control flow.

    The PC and the next-N-branch path jointly select a tagged entry, so
    every (static instruction, future path) pair gets its own
    confidence counter: paths along which the instruction dies build
    confidence independently of paths along which it lives — this is
    how the predictor separates the useful and useless instances of a
    partially dead static instruction.  Lookup consumes the *predicted*
    path (available at rename via the branch predictor); training
    consumes the resolved path (available at commit).

    Training policy, biased by the asymmetric cost of mistakes (a
    false "dead" forces a pipeline recovery, a false "live" only
    forfeits a small saving):

    * dead  -> saturating confidence increment (allocate on tag miss);
    * live  -> confidence := 0 on tag hit, no allocation on miss.
    """

    name = "path"

    def __init__(self, entries: int = 2048, tag_bits: int = 8,
                 path_bits: int = 3, conf_bits: int = 2,
                 threshold: int = 2):
        _check_power_of_two(entries)
        if threshold > (1 << conf_bits) - 1:
            raise ValueError("threshold exceeds confidence range")
        if (1 << path_bits) > entries:
            raise ValueError("path_bits too large for the table")
        self.entries = entries
        self.tag_bits = tag_bits
        self.path_bits = path_bits
        self.conf_bits = conf_bits
        self.threshold = threshold
        self._index_bits = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._path_mask = (1 << path_bits) - 1
        #: the lookup geometry the timing simulator reads (see
        #: :meth:`pc_fields`)
        self.path_shift = self._index_bits - path_bits
        self.conf_max = (1 << conf_bits) - 1
        self.tags: List[int] = [-1] * entries  # -1 == invalid
        self.confs: List[int] = [0] * entries

    def pc_fields(self, pcs: Sequence[int]) -> Tuple[List[int], List[int]]:
        """The table layout, stated once: per pc, the index bits of its
        instruction word and its tag.

        ``(pc, path)`` selects slot ``index ^ ((path & path_mask) <<
        path_shift)``: the path folds into the high index bits, so
        consecutive static instructions do not collide with each
        other's paths.  :meth:`walk` and the timing simulator's
        elimination engine both build their slots from these fields.
        """
        index_mask = self.entries - 1
        tag_shift = self._index_bits + 2
        tag_mask = self._tag_mask
        return ([(pc >> 2) & index_mask for pc in pcs],
                [(pc >> tag_shift) & tag_mask for pc in pcs])

    def walk(self, stream: PredictionStream,
             paths: PathInfo) -> List[bool]:
        tags = self.tags
        confs = self.confs
        threshold = self.threshold
        conf_max = self.conf_max
        path_mask = self._path_mask
        path_shift = self.path_shift
        predicted = paths.predicted
        actual = paths.actual
        probe = self.probe
        predictions: List[bool] = []
        append = predictions.append
        for i, index, tag, dead in zip(stream.eligible_index,
                                       *self.pc_fields(stream.eligible_pc),
                                       stream.eligible_dead):
            path = predicted[i]
            slot = index ^ ((path & path_mask) << path_shift)
            append(tags[slot] == tag and confs[slot] >= threshold)
            # Most branches are predicted right: then training uses the
            # slot the lookup used.
            if actual[i] != path:
                slot = index ^ ((actual[i] & path_mask) << path_shift)
            if tags[slot] != tag:
                if dead:
                    if probe is not None:
                        probe.note_alloc()
                        if tags[slot] != -1:
                            probe.note_eviction()
                    tags[slot] = tag
                    confs[slot] = 1
            elif dead:
                if confs[slot] < conf_max:
                    confs[slot] += 1
            else:
                confs[slot] = 0
        return predictions

    def storage_bits(self) -> int:
        # tag + confidence + valid bit, per entry.
        return self.entries * (self.tag_bits + self.conf_bits + 1)


class SignatureDeadPredictor(DeadPredictor):
    """Design alternative: one learned dead-path signature per PC.

    Entry = {tag, path signature, confidence}; predicts dead iff the
    predicted future path equals the single learned signature.  Cheaper
    per static instruction than :class:`PathDeadPredictor` but can
    track only one dead path at a time, and uncorrelated far branches
    keep invalidating the signature — the F6 experiment quantifies how
    much that costs.

    Training: a dead outcome on the learned path raises confidence, one
    on another path replaces the signature (confidence 1); a live
    outcome clears confidence only along the learned path.
    """

    name = "signature"

    def __init__(self, entries: int = 2048, tag_bits: int = 8,
                 path_bits: int = 3, conf_bits: int = 2,
                 threshold: int = 2):
        _check_power_of_two(entries)
        if threshold > (1 << conf_bits) - 1:
            raise ValueError("threshold exceeds confidence range")
        self.entries = entries
        self.tag_bits = tag_bits
        self.path_bits = path_bits
        self.conf_bits = conf_bits
        self.threshold = threshold
        self._index_bits = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._path_mask = (1 << path_bits) - 1
        self._conf_max = (1 << conf_bits) - 1
        self.tags: List[int] = [-1] * entries
        self.sigs: List[int] = [0] * entries
        self.confs: List[int] = [0] * entries

    def walk(self, stream: PredictionStream,
             paths: PathInfo) -> List[bool]:
        tags = self.tags
        sigs = self.sigs
        confs = self.confs
        threshold = self.threshold
        conf_max = self._conf_max
        index_bits = self._index_bits
        index_mask = self.entries - 1
        tag_mask = self._tag_mask
        path_mask = self._path_mask
        predicted = paths.predicted
        actual = paths.actual
        probe = self.probe
        predictions: List[bool] = []
        append = predictions.append
        for i, pc, dead in zip(stream.eligible_index, stream.eligible_pc,
                               stream.eligible_dead):
            word = pc >> 2
            slot = word & index_mask
            tag = (word >> index_bits) & tag_mask
            path = actual[i] & path_mask
            if tags[slot] != tag:
                append(False)
                if dead:
                    if probe is not None:
                        probe.note_alloc()
                        if tags[slot] != -1:
                            probe.note_eviction()
                    tags[slot] = tag
                    sigs[slot] = path
                    confs[slot] = 1
            else:
                append(confs[slot] >= threshold
                       and sigs[slot] == (predicted[i] & path_mask))
                if dead:
                    if sigs[slot] == path:
                        if confs[slot] < conf_max:
                            confs[slot] += 1
                    else:
                        sigs[slot] = path
                        confs[slot] = 1
                elif sigs[slot] == path:
                    confs[slot] = 0
        return predictions

    def storage_bits(self) -> int:
        return self.entries * (self.tag_bits + self.path_bits
                               + self.conf_bits + 1)


class BimodalDeadPredictor(DeadPredictor):
    """PC-only baseline: a tagged confidence counter per static.

    Increments on dead outcomes, clears on live outcomes.  It can only
    learn "this static is (almost) always dead", so partially dead
    statics — the majority of dead instances — oscillate below the
    threshold and are never covered.
    """

    name = "bimodal"

    def __init__(self, entries: int = 2048, tag_bits: int = 8,
                 conf_bits: int = 2, threshold: int = 2):
        _check_power_of_two(entries)
        if threshold > (1 << conf_bits) - 1:
            raise ValueError("threshold exceeds confidence range")
        self.entries = entries
        self.tag_bits = tag_bits
        self.conf_bits = conf_bits
        self.threshold = threshold
        self._index_bits = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._conf_max = (1 << conf_bits) - 1
        self.tags: List[int] = [-1] * entries
        self.confs: List[int] = [0] * entries

    def walk(self, stream: PredictionStream,
             paths: PathInfo) -> List[bool]:
        # The path plays no part: lookup and training share one slot.
        tags = self.tags
        confs = self.confs
        threshold = self.threshold
        conf_max = self._conf_max
        index_bits = self._index_bits
        index_mask = self.entries - 1
        tag_mask = self._tag_mask
        probe = self.probe
        predictions: List[bool] = []
        append = predictions.append
        for pc, dead in zip(stream.eligible_pc, stream.eligible_dead):
            word = pc >> 2
            slot = word & index_mask
            tag = (word >> index_bits) & tag_mask
            if tags[slot] != tag:
                append(False)
                if dead:
                    if probe is not None:
                        probe.note_alloc()
                        if tags[slot] != -1:
                            probe.note_eviction()
                    tags[slot] = tag
                    confs[slot] = 1
            else:
                append(confs[slot] >= threshold)
                if dead:
                    if confs[slot] < conf_max:
                        confs[slot] += 1
                else:
                    confs[slot] = 0
        return predictions

    def storage_bits(self) -> int:
        return self.entries * (self.tag_bits + self.conf_bits + 1)


class HistoryDeadPredictor(DeadPredictor):
    """Control-flow-history baseline: indexes by PC and *past* branch
    outcomes (the global history register), the information a
    conventional correlating predictor would use.

    The paper's insight is that deadness is decided by the *future*
    path — whether the upcoming branch skips the consumer — which past
    history only predicts indirectly (insofar as the past correlates
    with the future).  This design isolates that claim: identical
    structure to :class:`PathDeadPredictor`, but fed the last N branch
    outcomes instead of the next N predictions.  The walk shifts the
    stream's resolved branch outcomes into the history register in
    dynamic order, between the eligible events.
    """

    name = "history"

    def __init__(self, entries: int = 2048, tag_bits: int = 8,
                 history_bits: int = 3, conf_bits: int = 2,
                 threshold: int = 2):
        _check_power_of_two(entries)
        if threshold > (1 << conf_bits) - 1:
            raise ValueError("threshold exceeds confidence range")
        if (1 << history_bits) > entries:
            raise ValueError("history_bits too large for the table")
        self.entries = entries
        self.tag_bits = tag_bits
        self.history_bits = history_bits
        self.conf_bits = conf_bits
        self.threshold = threshold
        self._index_bits = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._history_mask = (1 << history_bits) - 1
        self._history_shift = self._index_bits - history_bits
        self._conf_max = (1 << conf_bits) - 1
        self.history = 0
        self.tags: List[int] = [-1] * entries
        self.confs: List[int] = [0] * entries

    def walk(self, stream: PredictionStream,
             paths: PathInfo) -> List[bool]:
        tags = self.tags
        confs = self.confs
        threshold = self.threshold
        conf_max = self._conf_max
        index_bits = self._index_bits
        index_mask = self.entries - 1
        tag_mask = self._tag_mask
        history_mask = self._history_mask
        history_shift = self._history_shift
        history = self.history
        branch_index = stream.branch_index
        branch_taken = stream.branch_taken
        n_branches = len(branch_index)
        b = 0
        probe = self.probe
        predictions: List[bool] = []
        append = predictions.append
        for i, pc, dead in zip(stream.eligible_index, stream.eligible_pc,
                               stream.eligible_dead):
            # Two-pointer merge: the branch and eligible index lists
            # are disjoint and ascending.
            while b < n_branches and branch_index[b] < i:
                history = ((history << 1) | branch_taken[b]) \
                    & history_mask
                b += 1
            # Lookup and training share the history context (both
            # happen at the instruction's position in the walk).
            word = pc >> 2
            slot = (word ^ (history << history_shift)) & index_mask
            tag = (word >> index_bits) & tag_mask
            if tags[slot] != tag:
                append(False)
                if dead:
                    if probe is not None:
                        probe.note_alloc()
                        if tags[slot] != -1:
                            probe.note_eviction()
                    tags[slot] = tag
                    confs[slot] = 1
            else:
                append(confs[slot] >= threshold)
                if dead:
                    if confs[slot] < conf_max:
                        confs[slot] += 1
                else:
                    confs[slot] = 0
        for taken in branch_taken[b:]:
            history = ((history << 1) | taken) & history_mask
        self.history = history
        return predictions

    def storage_bits(self) -> int:
        return self.entries * (self.tag_bits + self.conf_bits + 1) \
            + self.history_bits


class OracleDeadPredictor(DeadPredictor):
    """Perfect dead-instruction knowledge (upper bound, zero state)."""

    name = "oracle"

    def __init__(self, dead_labels: Sequence[bool]):
        self.dead_labels = dead_labels

    def walk(self, stream: PredictionStream,
             paths: PathInfo) -> List[bool]:
        # Predicts each event's own label; nothing to train.
        return list(map(bool, map(self.dead_labels.__getitem__,
                                  stream.eligible_index)))

    def storage_bits(self) -> int:
        return 0
