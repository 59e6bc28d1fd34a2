"""The run-table context's sweep path: the cached predict stage
equals direct evaluation, cold and hot; shared state is memoized
across sweep points; a cold cell crosses every span site that the
end-to-end benchmark wraps."""

from __future__ import annotations

import dataclasses
import glob
import importlib
import os

import pytest

from repro import kernels, obs
from repro.harness.engine import (
    CellSpec,
    Engine,
    EngineConfig,
    configure,
    reset_engine,
)
from repro.harness.experiments import run_experiment
from repro.harness.runtable import RunTableContext
from repro.harness.sweep import elim_variant
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

SCALE = 0.3


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Engine-built cells: each carries the trace key that the predict
    stage's key chains from."""
    engine = Engine(EngineConfig(
        jobs=1, cache=True,
        cache_dir=str(tmp_path_factory.mktemp("cells"))))
    return engine.run_cells([
        CellSpec(workload=name, scale=SCALE, options=CompilerOptions())
        for name in ("sort", "rle")])


def make_context(tmp_path):
    """A context on *tmp_path*'s cache: a second one built on the same
    path is a warm re-run."""
    return RunTableContext(SCALE, engine=Engine(EngineConfig(
        jobs=1, cache=True, cache_dir=str(tmp_path / "cache"))))


def predict_entry(tmp_path):
    """The path of the one stored predict entry."""
    [path] = glob.glob(os.path.join(str(tmp_path), "cache", "stages",
                                    "predict", "*", "*.pkl"))
    return path


@pytest.fixture()
def ctx(tmp_path):
    return make_context(tmp_path)


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
        cold = make_context(tmp_path)
        hot = make_context(tmp_path)
        for context in (cold, hot):
            cells = [context.predict(run, PathDeadPredictor(entries=512),
                                     path_bits=3)
                     for run in runs]
            assert cells == direct
        assert cold.engine.stats.misses("predict") == len(runs)
        assert hot.engine.stats.hits("predict") == len(runs)
        assert hot.engine.stats.misses("predict") == 0

    def test_one_geometry_is_walked_once(self, ctx, runs):
        run = runs[0]
        ctx.predict(run, PathDeadPredictor(entries=2048), 3)
        ctx.predict(run, PathDeadPredictor(path_bits=3), 3)
        assert ctx.engine.stats.misses("predict") == 1
        assert ctx.engine.stats.hits("predict") == 1
        # Another geometry, or another width of the future paths, is
        # an entry of its own.
        ctx.predict(run, PathDeadPredictor(entries=512), 3)
        ctx.predict(run, PathDeadPredictor(), 4)
        assert ctx.engine.stats.misses("predict") == 3

    def test_paths_memoized_per_run(self, ctx, runs):
        first = ctx.paths_for(runs[0], 3)
        assert ctx.paths_for(runs[0], 3) is first
        assert ctx.paths_for(runs[1], 3) is not first
        # Different geometry -> different memo cell.
        assert ctx.paths_for(runs[0], 5) is not first

    def test_stream_memoized_per_run(self, ctx, runs):
        first = ctx.stream_for(runs[0])
        assert ctx.stream_for(runs[0]) is first

    def test_garbage_entry_is_quarantined_and_recomputed(self, tmp_path,
                                                         runs):
        expected = make_context(tmp_path).predict(
            runs[0], PathDeadPredictor(), 3)
        with open(predict_entry(tmp_path), "wb") as stream:
            stream.write(b"not a pickle at all")
        repaired = make_context(tmp_path)
        assert repaired.predict(runs[0], PathDeadPredictor(), 3) == \
            expected
        assert repaired.engine.stats.misses("predict") == 1
        assert repaired.engine.cache.counters["quarantined"] == 1
        # The recomputed entry was stored again.
        again = make_context(tmp_path)
        again.predict(runs[0], PathDeadPredictor(), 3)
        assert again.engine.stats.hits("predict") == 1

    def test_entry_of_another_shape_is_a_miss(self, tmp_path, runs):
        cold = make_context(tmp_path)
        expected = cold.predict(runs[0], PathDeadPredictor(), 3)
        key = os.path.basename(predict_entry(tmp_path))[:-len(".pkl")]
        cold.engine.cache.store("predict", key, (1, 2, 3, 4, 5))
        warm = make_context(tmp_path)
        assert warm.predict(runs[0], PathDeadPredictor(), 3) == expected
        assert warm.engine.stats.misses("predict") == 1

    def test_observed_run_walks_every_cell(self, tmp_path, runs):
        for run in runs:
            make_context(tmp_path).predict(run, PathDeadPredictor(), 3)
        collector = obs.configure_obs(obs.ObsConfig())
        try:
            observed = make_context(tmp_path)
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
        assert not any(span.attrs["hit"] for span in spans)

    def test_no_trace_key_walks_uncached(self, ctx, runs):
        run = runs[0]
        keyless = dataclasses.replace(run, trace_key=None)
        stats = ctx.predict(keyless, PathDeadPredictor(), 3)
        assert stats == ctx.predict(run, PathDeadPredictor(), 3)
        assert ctx.engine.stats.misses("predict") == 1


def test_warm_predictor_experiments_walk_nothing(tmp_path, monkeypatch):
    """A warm F5/F6/A1/A2 renders byte-identically to the cold run
    while every walk, stream and paths request raises."""

    def render():
        configure(EngineConfig(jobs=1, cache=True,
                               cache_dir=str(tmp_path / "cache")))
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


class TestTimingSweep:
    def test_pair_matches_direct_simulation(self, ctx, runs):
        run = runs[0]
        config = default_config()
        base, elim = ctx.pair(run, config)
        assert base.stats.cycles == ctx.engine.simulate(
            run.trace, config, run.analysis).stats.cycles
        assert elim.stats.cycles == ctx.engine.simulate(
            run.trace, elim_variant(config), run.analysis).stats.cycles
        assert elim.stats.eliminated > 0

    def test_prefetch_pairs_is_transparent(self, ctx, runs):
        ctx.prefetch_pairs(runs, default_config())
        base, elim = ctx.pair(runs[0], default_config())
        assert base.stats.cycles > 0
        assert elim.stats.eliminated > 0


#: Where ``benchmarks/e2e/spans.py`` wraps the cell path: each name is
#: patched on the module its callers look it up through.
SPAN_SITES = tuple(("repro.harness.engine", name) for name in (
    "compile_source", "assemble", "run_program", "analyze_deadness",
    "compute_paths", "simulate")) + (
    ("repro.harness.sweep", "evaluate_predictor"),
    ("repro.kernels", "prediction_stream_for"))


def test_cold_cell_crosses_every_span_site(tmp_path, monkeypatch):
    """One cold cell through ``run_for``, ``predict`` and ``pair``
    calls every wrapped name, so a refactor that moves a call off it
    fails here rather than dropping a layer from the benchmark."""
    calls = {site: 0 for site in SPAN_SITES}
    for site in SPAN_SITES:
        module = importlib.import_module(site[0])
        original = getattr(module, site[1])

        def counting(*args, _site=site, _original=original, **kwargs):
            calls[_site] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, site[1], counting)
    context = make_context(tmp_path)
    context.engine.clear_memos()
    run = context.run_for("gen:s1")
    context.predict(run, PathDeadPredictor(), 3)
    context.pair(run, contended_config())
    assert [site for site, count in calls.items() if not count] == []
