"""The sweep executor: the cached predict stage equals direct
evaluation, cold and hot; shared state is memoized across sweep
points."""

from __future__ import annotations

import glob
import os

import pytest

from repro import kernels, obs
from repro.harness import runs as harness_runs
from repro.harness.engine import (
    CellSpec,
    Engine,
    EngineConfig,
    configure,
    reset_engine,
)
from repro.harness.experiments import run_experiment
from repro.harness.runs import SuiteRun
from repro.harness.runtable import RunTableContext
from repro.harness.sweep import SweepExecutor, elim_variant
from repro.lang import CompilerOptions
from repro.pipeline import contended_config, default_config
from repro.predictors import (
    BimodalDeadPredictor,
    HistoryDeadPredictor,
    OracleDeadPredictor,
    PathDeadPredictor,
    ProfileDeadPredictor,
    compute_paths,
    evaluate_predictor,
)
from repro.predictors.dead.table import SignatureDeadPredictor
from repro.workloads import get_workload

SCALE = 0.3


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Engine-built runs: each carries the trace key that the predict
    stage's key chains from."""
    engine = Engine(EngineConfig(
        jobs=1, cache=True,
        cache_dir=str(tmp_path_factory.mktemp("cells"))))
    artifacts = engine.run_cells([
        CellSpec(workload=name, scale=SCALE, options=CompilerOptions())
        for name in ("sort", "rle")])
    return [SuiteRun(workload=get_workload(artifact.spec.workload),
                     trace=artifact.trace, analysis=artifact.analysis,
                     output=artifact.output, spec=artifact.spec,
                     cache_key=artifact.trace_key)
            for artifact in artifacts]


def make_executor(tmp_path):
    """An executor on *tmp_path*'s cache: a second one built on the
    same path is a warm re-run."""
    return SweepExecutor(Engine(EngineConfig(
        jobs=1, cache=True, cache_dir=str(tmp_path / "cache"))))


def predict_entry(tmp_path):
    """The path of the one stored predict entry."""
    [path] = glob.glob(os.path.join(str(tmp_path), "cache", "stages",
                                    "predict", "*", "*.pkl"))
    return path


@pytest.fixture()
def executor(tmp_path):
    return make_executor(tmp_path)


class TestElimVariant:
    def test_sets_eliminate(self):
        variant = elim_variant(default_config())
        assert variant.eliminate is True

    def test_applies_overrides(self):
        variant = elim_variant(contended_config(),
                               {"eliminate_stores": False})
        assert variant.eliminate is True
        assert variant.eliminate_stores is False


class TestPredictorSweep:
    def test_matches_direct_evaluation(self, tmp_path, runs):
        """The cached cell equals direct evaluation, cold and hot."""
        direct = [evaluate_predictor(
            run.analysis, PathDeadPredictor(entries=512),
            compute_paths(run.trace, run.analysis.statics, path_bits=3))
            for run in runs]
        cold = make_executor(tmp_path)
        hot = make_executor(tmp_path)
        for executor in (cold, hot):
            cells = [executor.predict(run, PathDeadPredictor(entries=512),
                                      path_bits=3)
                     for run in runs]
            assert cells == direct
        assert cold.engine.stats.misses("predict") == len(runs)
        assert hot.engine.stats.hits("predict") == len(runs)
        assert hot.engine.stats.misses("predict") == 0

    def test_one_geometry_is_walked_once(self, executor, runs):
        run = runs[0]
        executor.predict(run, PathDeadPredictor(entries=2048), 3)
        executor.predict(run, PathDeadPredictor(path_bits=3), 3)
        assert executor.engine.stats.misses("predict") == 1
        assert executor.engine.stats.hits("predict") == 1
        # Another geometry, or another width of the future paths, is
        # an entry of its own.
        executor.predict(run, PathDeadPredictor(entries=512), 3)
        executor.predict(run, PathDeadPredictor(), 4)
        assert executor.engine.stats.misses("predict") == 3

    def test_paths_memoized_per_run(self, executor, runs):
        first = executor.paths_for(runs[0], 3)
        assert executor.paths_for(runs[0], 3) is first
        assert executor.paths_for(runs[1], 3) is not first
        # Different geometry -> different memo cell.
        assert executor.paths_for(runs[0], 5) is not first

    def test_stream_memoized_per_run(self, executor, runs):
        first = executor.stream_for(runs[0])
        assert executor.stream_for(runs[0]) is first

    def test_garbage_entry_is_quarantined_and_recomputed(self, tmp_path,
                                                         runs):
        expected = make_executor(tmp_path).predict(
            runs[0], PathDeadPredictor(), 3)
        with open(predict_entry(tmp_path), "wb") as stream:
            stream.write(b"not a pickle at all")
        repaired = make_executor(tmp_path)
        assert repaired.predict(runs[0], PathDeadPredictor(), 3) == \
            expected
        assert repaired.engine.stats.misses("predict") == 1
        assert repaired.engine.cache.counters["quarantined"] == 1
        # The recomputed entry was stored again.
        again = make_executor(tmp_path)
        again.predict(runs[0], PathDeadPredictor(), 3)
        assert again.engine.stats.hits("predict") == 1

    def test_entry_of_another_shape_is_a_miss(self, tmp_path, runs):
        cold = make_executor(tmp_path)
        expected = cold.predict(runs[0], PathDeadPredictor(), 3)
        key = os.path.basename(predict_entry(tmp_path))[:-len(".pkl")]
        cold.engine.cache.store("predict", key, (1, 2, 3, 4, 5))
        warm = make_executor(tmp_path)
        assert warm.predict(runs[0], PathDeadPredictor(), 3) == expected
        assert warm.engine.stats.misses("predict") == 1

    def test_observed_run_walks_every_cell(self, tmp_path, runs):
        for run in runs:
            make_executor(tmp_path).predict(run, PathDeadPredictor(), 3)
        collector = obs.configure_obs(obs.ObsConfig())
        try:
            observed = make_executor(tmp_path)
            for run in runs:
                observed.predict(run, PathDeadPredictor(), 3)
        finally:
            obs.reset_obs()
        assert observed.engine.stats.misses("predict") == len(runs)
        assert observed.engine.stats.hits("predict") == 0
        assert [probe["workload"] for probe in collector.probes] == \
            [run.trace.program.name for run in runs]
        spans = [span for span in collector.tracer.spans
                 if span.name == "stage:predict"]
        assert len(spans) == len(runs)
        assert collector.registry.counter(
            "repro_stage_total", stage="predict",
            result="miss").value == len(runs)

    def test_no_trace_key_walks_uncached(self, executor, runs):
        run = runs[0]
        keyless = SuiteRun(workload=run.workload, trace=run.trace,
                           analysis=run.analysis, output=run.output)
        stats = executor.predict(keyless, PathDeadPredictor(), 3)
        assert stats == executor.predict(run, PathDeadPredictor(), 3)
        assert executor.engine.stats.misses("predict") == 1


def test_warm_predictor_experiments_walk_nothing(tmp_path, monkeypatch):
    """A warm F5/F6/A1/A2 renders byte-identically to the cold run
    while every walk, stream and paths request raises."""

    def render():
        configure(EngineConfig(jobs=1, cache=True,
                               cache_dir=str(tmp_path / "cache")))
        harness_runs.clear_cache()
        return [run_experiment(identifier, scale=0.2).render()
                for identifier in ("F5", "F6", "A1", "A2")]

    def refuse(*args, **kwargs):
        raise AssertionError("a warm run did per-event work")

    try:
        cold = render()
        for design in (PathDeadPredictor, SignatureDeadPredictor,
                       BimodalDeadPredictor, HistoryDeadPredictor,
                       ProfileDeadPredictor, OracleDeadPredictor):
            monkeypatch.setattr(design, "walk", refuse)
        monkeypatch.setattr(kernels, "prediction_stream_for", refuse)
        monkeypatch.setattr(Engine, "paths_for", refuse)
        assert render() == cold
    finally:
        reset_engine()
        harness_runs.clear_cache()


class TestTimingSweep:
    def test_pair_matches_direct_simulation(self, executor, runs):
        run = runs[0]
        config = default_config()
        base, elim = executor.pair(run, config)
        assert base.stats.cycles == executor.engine.simulate(
            run.trace, config, run.analysis).stats.cycles
        assert elim.stats.cycles == executor.engine.simulate(
            run.trace, elim_variant(config), run.analysis).stats.cycles
        assert elim.stats.eliminated > 0

    def test_prefetch_pairs_is_transparent(self, executor, runs):
        ctx = RunTableContext(SCALE, engine=executor.engine)
        ctx.prefetch_pairs(runs, default_config())
        base, elim = ctx.pair(runs[0], default_config())
        assert base.stats.cycles > 0
        assert elim.stats.eliminated > 0
