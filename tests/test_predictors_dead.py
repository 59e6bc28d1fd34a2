"""Dead-instruction predictor designs: training policy, stats, storage,
cache keys."""

import inspect

import pytest

from repro.analysis import analyze_deadness
from repro.emulator import run_program
from repro.isa import assemble
from repro.kernels.base import PredictionStream
from repro.predictors import (
    BimodalDeadPredictor,
    DeadPredictionStats,
    HistoryDeadPredictor,
    OracleDeadPredictor,
    PathDeadPredictor,
    ProfileDeadPredictor,
    compute_paths,
    evaluate_predictor,
)
from repro.predictors.branch import BranchStats
from repro.predictors.dead.paths import PathInfo
from repro.predictors.dead.table import SignatureDeadPredictor

PC = 0x100


def _walk(predictor, items):
    """Walk *items* at consecutive dynamic indices and return the
    predictions.  An item is a branch outcome (a bool) or an eligible
    event ``(pc, dead, path)``, looked up and trained on *path*."""
    stream = PredictionStream()
    signatures = []
    for index, item in enumerate(items):
        if isinstance(item, tuple):
            pc, dead, path = item
            stream.eligible_index.append(index)
            stream.eligible_pc.append(pc)
            stream.eligible_dead.append(dead)
            signatures.append(path)
        else:
            stream.branch_index.append(index)
            stream.branch_taken.append(item)
            signatures.append(0)
    paths = PathInfo(path_bits=3, predicted=signatures,
                     actual=signatures, branch_stats=BranchStats())
    return predictor.walk(stream, paths)


class TestPathPredictor:
    """Each event is looked up on its path, then trained with its label
    on the same path (``_walk``)."""

    def test_needs_threshold_dead_observations(self):
        predictor = PathDeadPredictor(threshold=2)
        assert _walk(predictor, [(PC, True, 5)] * 3) == \
            [False, False, True]

    def test_paths_learn_independently(self):
        predictor = PathDeadPredictor(threshold=2)
        predictions = _walk(predictor, [(PC, True, 5)] * 4
                            + [(PC, True, 2)])
        assert predictions[3]
        assert not predictions[4]  # other path untrained

    def test_live_outcome_clears_confidence(self):
        predictor = PathDeadPredictor(threshold=2)
        predictions = _walk(predictor, [(PC, True, 5)] * 3
                            + [(PC, False, 5), (PC, True, 5)])
        assert predictions[3]
        assert not predictions[4]

    def test_live_on_other_path_does_not_clear(self):
        predictor = PathDeadPredictor(threshold=2)
        predictions = _walk(predictor, [(PC, True, 5)] * 3
                            + [(PC, False, 2), (PC, True, 5)])
        assert predictions[4]

    def test_no_allocation_on_live(self):
        predictor = PathDeadPredictor()
        _walk(predictor, [(PC, False, 5)])
        assert all(tag == -1 for tag in predictor.tags)

    def test_confidence_saturates(self):
        predictor = PathDeadPredictor(conf_bits=2, threshold=2)
        _walk(predictor, [(PC, True, 5)] * 100)
        # One entry allocated, its counter pinned at the 2-bit maximum.
        assert [conf for conf in predictor.confs if conf] == [3]

    def test_storage_under_5kb(self):
        predictor = PathDeadPredictor(entries=2048, tag_bits=8,
                                      path_bits=3, conf_bits=2)
        assert predictor.storage_kb() < 5.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PathDeadPredictor(entries=1000)
        with pytest.raises(ValueError):
            PathDeadPredictor(conf_bits=1, threshold=5)
        with pytest.raises(ValueError):
            PathDeadPredictor(entries=4, path_bits=8)


class TestBimodalPredictor:
    def test_cannot_separate_paths(self):
        predictor = BimodalDeadPredictor(threshold=2)
        predictions = _walk(predictor, [(PC, True, 5)] * 3
                            + [(PC, True, 5), (PC, True, 2)])
        # Predicts dead regardless of the future path.
        assert predictions[3:] == [True, True]

    def test_oscillating_static_never_covered(self):
        """The paper's argument: a partially dead static defeats a
        PC-only predictor."""
        predictor = BimodalDeadPredictor(threshold=2)
        deadness = [index % 2 == 0 for index in range(100)]
        predictions = _walk(predictor,
                            [(PC, dead, 0) for dead in deadness])
        assert not any(p and dead
                       for p, dead in zip(predictions, deadness))


class TestOracle:
    def test_reflects_labels(self):
        oracle = OracleDeadPredictor([True, False, True])
        # The stream's own labels play no part: the oracle reads its.
        assert _walk(oracle, [(PC, False, 0)] * 3) == [True, False, True]
        assert oracle.storage_bits() == 0


class TestStats:
    def test_metrics(self):
        # Oracle labels against different stream labels: a hit, a
        # false positive, a miss and a true negative.
        oracle = OracleDeadPredictor([True, True, False, False])
        items = [(PC, True, 0), (PC, False, 0), (PC, True, 0),
                 (PC, False, 0)]
        stats = DeadPredictionStats()
        stats.tally(_walk(oracle, items), [item[1] for item in items])
        assert stats.accuracy == 0.5
        assert stats.coverage == 0.5
        assert stats.eligible == 4
        assert stats.false_positives == 1
        assert "accuracy" in stats.summary()

    def test_degenerate_metrics(self):
        stats = DeadPredictionStats()
        assert stats.accuracy == 1.0  # no predictions, none wrong
        assert stats.coverage == 0.0


class TestEvaluation:
    def _analysis(self):
        program = assemble("""
    li   t0, 60
loop:
    li   t1, 3          # fully dead in the loop
    li   t1, 4
    addi t0, t0, -1
    bnez t0, loop
    move a0, t1
    li   v0, 1
    syscall
    halt
""")
        _, trace = run_program(program)
        return analyze_deadness(trace)

    def test_path_predictor_covers_loop_deadness(self):
        analysis = self._analysis()
        paths = compute_paths(analysis.trace, analysis.statics,
                              path_bits=2)
        stats = evaluate_predictor(
            analysis, PathDeadPredictor(path_bits=2), paths)
        assert stats.dead > 0
        assert stats.coverage > 0.5
        assert stats.accuracy > 0.8

    def test_oracle_is_perfect(self):
        analysis = self._analysis()
        stats = evaluate_predictor(
            analysis, OracleDeadPredictor(analysis.dead))
        assert stats.accuracy == 1.0
        assert stats.coverage == 1.0

    def test_accumulation_across_workloads(self):
        analysis = self._analysis()
        stats = DeadPredictionStats()
        evaluate_predictor(analysis, PathDeadPredictor(), stats=stats)
        first = stats.eligible
        evaluate_predictor(analysis, PathDeadPredictor(), stats=stats)
        assert stats.eligible == 2 * first

    def test_signature_predictor_runs(self):
        analysis = self._analysis()
        stats = evaluate_predictor(analysis, SignatureDeadPredictor())
        assert stats.eligible > 0


class TestHistoryPredictor:
    def test_history_register_shifts(self):
        predictor = HistoryDeadPredictor(history_bits=3)
        _walk(predictor, [True, False, True])
        assert predictor.history == 0b101
        _walk(predictor, [True] * 5)
        assert predictor.history == 0b111

    def test_contexts_learn_independently(self):
        predictor = HistoryDeadPredictor(threshold=2)
        predictions = _walk(predictor, [True] + [(PC, True, 0)] * 4
                            + [False, (PC, True, 0)])
        assert predictions[3]       # learned under history 0b1
        assert not predictions[4]   # different context now (0b10)

    def test_future_beats_past_on_alternating_deadness(self):
        """An instruction dead exactly when the *next* branch is taken,
        with an uninformative past: the future-path design learns it,
        the past-history design cannot."""
        items = []
        for index in range(200):
            future_taken = index % 2 == 0
            items.append((PC, future_taken, int(future_taken)))
            # Past history is constant (uninformative).
            items.append(True)
        deadness = [item[1] for item in items if isinstance(item, tuple)]

        def hits(predictor):
            return sum(p and dead for p, dead in
                       zip(_walk(predictor, items), deadness))

        assert hits(PathDeadPredictor(threshold=2)) > 80
        assert hits(HistoryDeadPredictor(threshold=2)) == 0


DESIGNS = (PathDeadPredictor, SignatureDeadPredictor, BimodalDeadPredictor,
           HistoryDeadPredictor, ProfileDeadPredictor, OracleDeadPredictor)

#: design -> constructor arguments its key leaves out.  Both read the
#: run's own analysis, and the trace key in a predict-stage key covers
#: that.
KEY_EXEMPT = {
    ProfileDeadPredictor: {"analysis"},
    OracleDeadPredictor: {"dead_labels"},
}

#: a valid non-default value per integer constructor argument
CHANGED = {"entries": 4096, "tag_bits": 6, "path_bits": 2,
           "history_bits": 2, "conf_bits": 3, "threshold": 1}


def _keyed_arguments(design):
    return [parameter for name, parameter
            in inspect.signature(design).parameters.items()
            if name not in KEY_EXEMPT.get(design, ())]


def _build(design, **arguments):
    # The exempt arguments are never read before a walk.
    for name in KEY_EXEMPT.get(design, ()):
        arguments[name] = None
    return design(**arguments)


class TestKeys:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_every_constructor_argument_is_keyed(self, design):
        key = _build(design).key()
        for parameter in _keyed_arguments(design):
            assert "%s=" % parameter.name in key, key

    @pytest.mark.parametrize("design", DESIGNS)
    def test_equal_geometry_equal_key(self, design):
        assert _build(design).key() == _build(design).key()

    @pytest.mark.parametrize("design", DESIGNS)
    def test_any_changed_argument_changes_the_key(self, design):
        default = _build(design).key()
        for parameter in _keyed_arguments(design):
            value = (parameter.default / 2
                     if isinstance(parameter.default, float)
                     else CHANGED[parameter.name])
            assert _build(design, **{parameter.name: value}).key() \
                != default, parameter.name

    def test_designs_never_share_a_key(self):
        keys = {_build(design).key() for design in DESIGNS}
        assert len(keys) == len(DESIGNS)

    def test_default_path_has_one_key_under_four_names(self):
        from repro.harness.experiments import _F6_DESIGNS

        paper = dict(_F6_DESIGNS)["path-indexed (paper)"][0](None)
        keys = {PathDeadPredictor(entries=2048).key(),  # F5
                paper.key(),  # F6
                PathDeadPredictor(path_bits=3).key(),  # A1
                PathDeadPredictor(conf_bits=2, threshold=2).key()}  # A2
        assert keys == {PathDeadPredictor().key()}
