"""Every design's ``walk`` equals the per-event loop it replaced.

The reference designs below keep the per-event ``predict``/``train``
(and, for the history design, ``note_branch``) bodies the walks were
written from, and :func:`reference_walk` keeps the evaluation loop
that drove them.  The path design's reference keeps its slot/tag
arithmetic too, so the layout its walk and the timing simulator share
(``PathDeadPredictor.pc_fields``) is checked against it.  Hypothesis
draws small tables and few PCs, so aliasing, tag misses and evictions
are common, and interleaves branches with the eligible events,
trailing branches included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_deadness
from repro.emulator import run_program
from repro.isa import assemble
from repro.kernels.base import PredictionStream
from repro.obs.introspect import PredictorProbe
from repro.predictors.branch import BranchStats
from repro.predictors.dead import (
    BimodalDeadPredictor,
    HistoryDeadPredictor,
    OracleDeadPredictor,
    PathDeadPredictor,
    PathInfo,
    ProfileDeadPredictor,
    SignatureDeadPredictor,
)

# ---------------------------------------------------------------------
# Reference: the per-event rules
# ---------------------------------------------------------------------


class _ReferenceTable:
    """A fresh, empty table with the geometry of the walked predictor."""

    def __init__(self, predictor):
        self.entries = predictor.entries
        self.threshold = predictor.threshold
        self._index_bits = predictor._index_bits
        self._tag_mask = predictor._tag_mask
        self._conf_max = (1 << predictor.conf_bits) - 1
        self.tags = [-1] * predictor.entries
        self.confs = [0] * predictor.entries
        self.probe = PredictorProbe()

    def _allocate(self, slot, tag):
        self.probe.note_alloc()
        if self.tags[slot] != -1:
            self.probe.note_eviction()
        self.tags[slot] = tag


class ReferenceBimodal(_ReferenceTable):
    def _slot(self, pc):
        word = pc >> 2
        return word & (self.entries - 1), \
            (word >> self._index_bits) & self._tag_mask

    def predict(self, pc, predicted_path, index):
        slot, tag = self._slot(pc)
        return self.tags[slot] == tag and \
            self.confs[slot] >= self.threshold

    def train(self, pc, dead, actual_path, index):
        slot, tag = self._slot(pc)
        if self.tags[slot] != tag:
            if dead:
                self._allocate(slot, tag)
                self.confs[slot] = 1
            return
        if dead:
            if self.confs[slot] < self._conf_max:
                self.confs[slot] += 1
        else:
            self.confs[slot] = 0


class ReferencePath(_ReferenceTable):
    def __init__(self, predictor):
        super().__init__(predictor)
        self._path_mask = predictor._path_mask
        self._path_shift = predictor._index_bits - predictor.path_bits

    def _slot(self, pc, path):
        word = pc >> 2
        index = (word ^ ((path & self._path_mask) << self._path_shift)) \
            & (self.entries - 1)
        tag = (word >> self._index_bits) & self._tag_mask
        return index, tag

    def predict(self, pc, predicted_path, index):
        slot, tag = self._slot(pc, predicted_path)
        return self.tags[slot] == tag and \
            self.confs[slot] >= self.threshold

    def train(self, pc, dead, actual_path, index):
        slot, tag = self._slot(pc, actual_path)
        if self.tags[slot] != tag:
            if dead:
                self._allocate(slot, tag)
                self.confs[slot] = 1
            return
        if dead:
            if self.confs[slot] < self._conf_max:
                self.confs[slot] += 1
        else:
            self.confs[slot] = 0


class ReferenceHistory(ReferenceBimodal):
    def __init__(self, predictor):
        super().__init__(predictor)
        self._history_mask = predictor._history_mask
        self._history_shift = predictor._history_shift
        self.history = predictor.history

    def note_branch(self, taken):
        self.history = ((self.history << 1) | int(taken)) \
            & self._history_mask

    def _slot(self, pc):
        word = pc >> 2
        index = (word ^ (self.history << self._history_shift)) \
            & (self.entries - 1)
        tag = (word >> self._index_bits) & self._tag_mask
        return index, tag


class ReferenceSignature(_ReferenceTable):
    def __init__(self, predictor):
        super().__init__(predictor)
        self._path_mask = predictor._path_mask
        self.sigs = [0] * predictor.entries

    def _slot(self, pc):
        word = pc >> 2
        return word & (self.entries - 1), \
            (word >> self._index_bits) & self._tag_mask

    def predict(self, pc, predicted_path, index):
        slot, tag = self._slot(pc)
        return (self.tags[slot] == tag
                and self.confs[slot] >= self.threshold
                and self.sigs[slot] == (predicted_path & self._path_mask))

    def train(self, pc, dead, actual_path, index):
        slot, tag = self._slot(pc)
        path = actual_path & self._path_mask
        if self.tags[slot] != tag:
            if dead:
                self._allocate(slot, tag)
                self.sigs[slot] = path
                self.confs[slot] = 1
            return
        if dead:
            if self.sigs[slot] == path:
                if self.confs[slot] < self._conf_max:
                    self.confs[slot] += 1
            else:
                self.sigs[slot] = path
                self.confs[slot] = 1
        elif self.sigs[slot] == path:
            self.confs[slot] = 0


class ReferenceOracle:
    def __init__(self, predictor):
        self.dead_labels = predictor.dead_labels

    def predict(self, pc, predicted_path, index):
        return bool(self.dead_labels[index])

    def train(self, pc, dead, actual_path, index):
        pass


class ReferenceProfile:
    def __init__(self, predictor):
        self.always_dead = predictor.always_dead

    def predict(self, pc, predicted_path, index):
        return pc in self.always_dead

    def train(self, pc, dead, actual_path, index):
        pass


def reference_walk(predictor, stream, paths):
    """The per-event evaluation loop: branch outcomes and eligible
    lookups merged in dynamic order, predict before train."""
    note_branch = getattr(predictor, "note_branch", None)
    branch_index = stream.branch_index
    b = 0
    predictions = []
    for i, pc, dead in zip(stream.eligible_index, stream.eligible_pc,
                           stream.eligible_dead):
        while note_branch and b < len(branch_index) \
                and branch_index[b] < i:
            note_branch(stream.branch_taken[b])
            b += 1
        predictions.append(predictor.predict(pc, paths.predicted[i], i))
        predictor.train(pc, dead, paths.actual[i], i)
    if note_branch:
        for taken in stream.branch_taken[b:]:
            note_branch(taken)
    return predictions


# ---------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------


#: instruction words that share four low values and differ above bit 6:
#: in every 16–64 entry table they alias to a few slots under
#: different tags
WORDS = st.builds(lambda low, high: low + 64 * high,
                  st.integers(0, 3), st.integers(0, 7))


@st.composite
def walks(draw):
    """``(stream, paths, labels)``: eligible events over a handful of
    PCs, interleaved with branches and gaps, trailing branches
    included, over :data:`WORDS`.  Future paths come from a small set,
    one of them wider than any path field; the oracle labels are drawn
    apart from the deadness labels."""
    pcs = draw(st.lists(WORDS, min_size=2, max_size=6, unique=True))
    signature = st.sampled_from((0, 1, 2, 61))
    event = st.tuples(st.sampled_from(pcs), st.booleans(), signature,
                      signature, st.booleans())
    items = draw(st.lists(st.one_of(event, st.booleans(), st.none()),
                          min_size=16, max_size=60))
    items += draw(st.lists(st.booleans(), max_size=4))
    stream = PredictionStream()
    n = len(items)
    paths = PathInfo(path_bits=6, predicted=[0] * n, actual=[0] * n,
                     branch_stats=BranchStats())
    labels = [False] * n
    for index, item in enumerate(items):
        if isinstance(item, tuple):
            word, dead, predicted, actual, label = item
            stream.eligible_index.append(index)
            stream.eligible_pc.append(0x400000 + 4 * word)
            stream.eligible_dead.append(dead)
            paths.predicted[index] = predicted
            paths.actual[index] = actual
            labels[index] = label
        elif item is not None:
            stream.branch_index.append(index)
            stream.branch_taken.append(item)
    return stream, paths, labels


@st.composite
def geometries(draw, field_bits=True):
    """Constructor keywords for a 16–64 entry table; *field_bits* adds
    the path/history width, bounded by the index width."""
    entries = draw(st.sampled_from((16, 32, 64)))
    conf_bits = draw(st.integers(1, 3))
    kwargs = {"entries": entries,
              "tag_bits": draw(st.integers(1, 8)),
              "conf_bits": conf_bits,
              "threshold": draw(st.integers(1, (1 << conf_bits) - 1))}
    if field_bits:
        kwargs["field_bits"] = draw(
            st.integers(1, entries.bit_length() - 1))
    return kwargs


def _assert_same_walk(predictor, reference, stream, paths, state):
    probe = PredictorProbe()
    predictor.probe = probe
    predictions = predictor.walk(stream, paths)
    expected = reference_walk(reference, stream, paths)
    assert predictions == expected
    assert all(type(value) is bool for value in predictions)
    assert len(predictions) == len(stream.eligible_index)
    for name in state:
        assert getattr(predictor, name) == getattr(reference, name), name
    reference_probe = getattr(reference, "probe", None)
    if reference_probe is not None:
        assert (probe.allocations, probe.evictions) == \
            (reference_probe.allocations, reference_probe.evictions)


TABLE_STATE = ("tags", "confs")

# ---------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(walks(), geometries())
def test_path_walk_matches_reference(case, kwargs):
    stream, paths, _labels = case
    path_bits = kwargs.pop("field_bits")
    predictor = PathDeadPredictor(path_bits=path_bits, **kwargs)
    _assert_same_walk(predictor, ReferencePath(predictor), stream, paths,
                      TABLE_STATE)


@settings(max_examples=100, deadline=None)
@given(walks(), geometries(field_bits=False))
def test_bimodal_walk_matches_reference(case, kwargs):
    stream, paths, _labels = case
    predictor = BimodalDeadPredictor(**kwargs)
    _assert_same_walk(predictor, ReferenceBimodal(predictor), stream,
                      paths, TABLE_STATE)


@settings(max_examples=100, deadline=None)
@given(walks(), geometries(), st.integers(0, 63))
def test_history_walk_matches_reference(case, kwargs, history):
    stream, paths, _labels = case
    history_bits = kwargs.pop("field_bits")
    predictor = HistoryDeadPredictor(history_bits=history_bits, **kwargs)
    # A walk continues from whatever history a previous walk left.
    predictor.history = history & predictor._history_mask
    _assert_same_walk(predictor, ReferenceHistory(predictor), stream,
                      paths, TABLE_STATE + ("history",))


@settings(max_examples=100, deadline=None)
@given(walks(), geometries())
def test_signature_walk_matches_reference(case, kwargs):
    stream, paths, _labels = case
    path_bits = kwargs.pop("field_bits")
    predictor = SignatureDeadPredictor(path_bits=path_bits, **kwargs)
    _assert_same_walk(predictor, ReferenceSignature(predictor), stream,
                      paths, TABLE_STATE + ("sigs",))


@settings(max_examples=40, deadline=None)
@given(walks())
def test_oracle_walk_matches_reference(case):
    stream, paths, labels = case
    predictor = OracleDeadPredictor(labels)
    _assert_same_walk(predictor, ReferenceOracle(predictor), stream,
                      paths, ())


@pytest.fixture(scope="module")
def loop_analysis():
    _, trace = run_program(assemble("""
    li   t0, 3
loop:
    li   t1, 1
    addi t0, t0, -1
    bnez t0, loop
    halt
"""))
    return analyze_deadness(trace)


@settings(max_examples=40, deadline=None)
@given(case=walks(), profiled_words=st.sets(WORDS, max_size=16))
def test_profile_walk_matches_reference(loop_analysis, case,
                                        profiled_words):
    stream, paths, _labels = case
    predictor = ProfileDeadPredictor(loop_analysis)
    # The walk's rule is membership in the profile; draw the profile.
    predictor.always_dead = {0x400000 + 4 * word
                             for word in profiled_words}
    _assert_same_walk(predictor, ReferenceProfile(predictor), stream,
                      paths, ())
