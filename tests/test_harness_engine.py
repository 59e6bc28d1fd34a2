"""The experiment engine: staged caching, invalidation, robustness,
and serial/parallel equivalence (docs/harness.md)."""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.cachedir import CacheDir, MISS, stable_hash
from repro.harness.engine import CellSpec, Engine, EngineConfig
from repro.lang import CompilerOptions
from repro.pipeline import contended_config, default_config
from repro.pipeline.config import DeadPredictorConfig

SCALE = 0.3


def make_engine(tmp_path, jobs=1, cache=True, name="cache", **extra):
    return Engine(EngineConfig(jobs=jobs, cache=cache,
                               cache_dir=str(tmp_path / name), **extra))


def spec(workload="matmul", scale=SCALE, **options):
    return CellSpec(workload=workload, scale=scale,
                    options=CompilerOptions(**options))


class TestCacheKeys:
    def test_equal_configs_equal_keys(self):
        from dataclasses import replace

        assert default_config().to_key() == default_config().to_key()
        rebuilt = replace(contended_config(), name="contended")
        assert rebuilt.to_key() == contended_config().to_key()
        assert CompilerOptions(opt_level=2).to_key() == \
            CompilerOptions().to_key()

    def test_any_field_changes_the_key(self):
        base = default_config()
        assert base.to_key() != contended_config().to_key()
        from dataclasses import replace

        nested = replace(base, dead_predictor=DeadPredictorConfig(
            entries=4096))
        assert nested.to_key() != base.to_key()
        assert CompilerOptions(max_hoist=8).to_key() != \
            CompilerOptions().to_key()

    def test_unsupported_value_raises(self):
        from repro.keys import value_key

        with pytest.raises(TypeError):
            value_key(object())

    def test_memo_keeps_equal_values_of_other_types_apart(self):
        """``True == 1 == 1.0`` and ``0.0 == -0.0``, also inside
        containers and nested configs, but each renders its own key,
        whichever of them is keyed first."""
        from dataclasses import dataclass

        from repro.keys import config_key

        def knob_class():
            # A class per order: the memo has seen none of its values.
            @dataclass(frozen=True)
            class Knob:
                value: object = 0
            return Knob

        values = (True, 1, 1.0, 0.0, -0.0, (1,), (True,), (1.0,),
                  frozenset({1}), frozenset({True}), "1")
        expected = ["True", "1", "1.0", "0.0", "-0.0", "[1]", "[True]",
                    "[1.0]", "{1}", "{True}", "'1'"]
        for order in (range(len(values)), range(len(values) - 1, -1, -1)):
            knob = knob_class()
            nested = knob_class()
            keys = {}
            for index in order:
                keys[index] = (config_key(knob(values[index])),
                               config_key(knob(nested(values[index]))))
            assert [keys[index] for index in range(len(values))] == [
                ("Knob(value=%s)" % text,
                 "Knob(value=Knob(value=%s))" % text)
                for text in expected]
        # An unhashable value is keyed without the memo.
        assert config_key(knob([1, {2: 3}])) == "Knob(value=[1,{2:3}])"


class TestStageCache:
    def test_hit_on_identical_inputs(self, tmp_path):
        cold = make_engine(tmp_path)
        first = cold.run_cells([spec()])[0]
        assert cold.stats.misses("compile") == 1
        assert cold.stats.misses("trace") == 1
        assert cold.stats.misses("analysis") == 1

        hot = make_engine(tmp_path)  # same cache dir, fresh process sim
        second = hot.run_cells([spec()])[0]
        assert hot.stats.hits("compile") == 1
        assert hot.stats.misses("compile") == 0
        assert hot.stats.misses("trace") == 0
        assert hot.stats.misses("analysis") == 0
        assert second.trace.pcs == first.trace.pcs
        assert second.trace.taken == first.trace.taken
        assert second.trace.addrs == first.trace.addrs
        assert second.output == first.output
        assert second.analysis.dead == first.analysis.dead
        assert second.analysis.n_dead == first.analysis.n_dead

    def test_miss_on_changed_source_or_config(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.run_cells([spec()])
        # Different scale => different generated source => compile miss.
        engine.run_cells([spec(scale=0.4)])
        assert engine.stats.misses("compile") == 2
        # Different compiler options, same source => compile miss.
        engine.run_cells([spec(max_hoist=1)])
        assert engine.stats.misses("compile") == 3
        # And the original inputs still hit.
        engine.run_cells([spec()])
        assert engine.stats.hits("compile") == 1

    def test_options_compiling_to_one_program_share_its_trace(
            self, tmp_path):
        # -O0 does not hoist, so the hoist limit changes the compile
        # key but not the assembly: everything past compile is shared.
        engine = make_engine(tmp_path)
        first = engine.run_cells([spec(opt_level=0, max_hoist=1)])[0]
        second = engine.run_cells([spec(opt_level=0, max_hoist=4)])[0]
        assert engine.stats.misses("compile") == 2
        assert first.compile_key != second.compile_key
        assert first.trace_key == second.trace_key
        for stage in ("trace", "analysis"):
            assert engine.stats.misses(stage) == 1, stage
            assert engine.stats.hits(stage) == 1, stage
        config = contended_config()
        for artifact in (first, second):
            engine.simulate(artifact.trace, config, artifact.analysis,
                            trace_key=artifact.trace_key)
        assert engine.stats.misses("timing") == 1
        assert engine.stats.hits("timing") == 1
        # Hoist limits that change the program keep their own trace.
        two, four = engine.run_cells([spec(max_hoist=2),
                                      spec(max_hoist=4)])
        assert two.trace_key != four.trace_key

    def test_corrupt_entry_recomputes(self, tmp_path):
        # Pin the artifact plane off: this exercises the pickle tier's
        # own corruption handling (a live plane would transparently
        # serve the cell from its bundle instead).
        engine = make_engine(tmp_path, artifacts=False)
        first = engine.run_cells([spec()])[0]
        path = engine.cache.entry_path("trace", first.trace_key)
        assert os.path.exists(path)
        blob = pathlib.Path(path).read_bytes()
        with open(path, "wb") as stream:  # truncate mid-pickle
            stream.write(blob[: len(blob) // 2])

        repaired = make_engine(tmp_path, artifacts=False)
        second = repaired.run_cells([spec()])[0]
        assert repaired.stats.misses("trace") == 1  # transparent miss
        assert second.trace.pcs == first.trace.pcs
        assert second.output == first.output
        # The entry was re-stored and is valid again.
        third = make_engine(tmp_path, artifacts=False)
        third.run_cells([spec()])
        assert third.stats.hits("trace") == 1

    def test_corrupt_entry_served_by_plane(self, tmp_path):
        # Same corruption, plane on: the cell still counts a stage hit
        # because the bundle tier serves it without touching pickle.
        engine = make_engine(tmp_path)
        first = engine.run_cells([spec()])[0]
        path = engine.cache.entry_path("trace", first.trace_key)
        blob = pathlib.Path(path).read_bytes()
        with open(path, "wb") as stream:
            stream.write(blob[: len(blob) // 2])
        repaired = make_engine(tmp_path)
        second = repaired.run_cells([spec()])[0]
        assert repaired.stats.hits("trace") == 1
        assert repaired.plane.counters["attach_hits"] > 0
        assert second.trace.pcs == first.trace.pcs
        assert second.output == first.output

    def test_garbage_entry_recomputes(self, tmp_path):
        engine = make_engine(tmp_path, artifacts=False)
        first = engine.run_cells([spec()])[0]
        path = engine.cache.entry_path("analysis", first.analysis_key)
        with open(path, "wb") as stream:
            stream.write(b"not a pickle at all")
        repaired = make_engine(tmp_path, artifacts=False)
        second = repaired.run_cells([spec()])[0]
        assert repaired.stats.misses("analysis") == 1
        assert second.analysis.dead == first.analysis.dead

    def test_load_returns_miss_sentinel(self, tmp_path):
        cache = CacheDir(str(tmp_path / "c"))
        assert cache.load("compile", stable_hash("nope")) is MISS


class TestParallel:
    WORKLOADS = ("matmul", "sort", "rle", "crc", "strsearch")

    def test_serial_and_parallel_results_identical(self, tmp_path):
        specs = [spec(workload=name) for name in self.WORKLOADS]
        serial = make_engine(tmp_path, jobs=1, name="serial")
        parallel = make_engine(tmp_path, jobs=3, name="parallel")
        serial_arts = serial.run_cells(specs)
        parallel_arts = parallel.run_cells(specs)
        assert [a.spec.workload for a in parallel_arts] == \
            [s.workload for s in specs]  # deterministic ordering
        for left, right in zip(serial_arts, parallel_arts):
            assert left.trace.pcs == right.trace.pcs
            assert left.trace.taken == right.trace.taken
            assert left.trace.addrs == right.trace.addrs
            assert left.output == right.output
            assert left.analysis.dead == right.analysis.dead
            assert left.analysis.direct == right.analysis.direct
            assert left.trace_key == right.trace_key

    def test_parallel_populates_shared_cache(self, tmp_path):
        specs = [spec(workload=name) for name in self.WORKLOADS]
        make_engine(tmp_path, jobs=3).run_cells(specs)
        hot = make_engine(tmp_path)
        hot.run_cells(specs)
        assert hot.stats.misses("compile") == 0
        assert hot.stats.misses("trace") == 0

    def test_prefetch_then_serial_read(self, tmp_path):
        engine = make_engine(tmp_path, jobs=2)
        arts = engine.run_cells([spec(), spec(workload="sort")])
        config = contended_config()
        engine.prefetch_simulations([(a, config) for a in arts])
        for artifact in arts:
            result = engine.simulate(artifact.trace, config,
                                     artifact.analysis,
                                     trace_key=artifact.trace_key)
            assert result.stats.committed == len(artifact.trace)
        assert engine.stats.misses("timing") == 0


class TestSuite:
    def test_memoized_per_engine(self, tmp_path):
        engine = make_engine(tmp_path)
        cells = engine.suite(0.1, CompilerOptions(), names=("sort",))
        assert engine.suite(0.1, CompilerOptions(),
                            names=("sort",)) is cells
        assert [cell.workload.name for cell in cells] == ["sort"]
        engine.clear_memos()
        assert engine.suite(0.1, CompilerOptions(),
                            names=("sort",)) is not cells

    def test_suite_runs_follow_configure(self, tmp_path):
        """After ``configure()`` installs an engine on a second cache
        dir, ``suite_runs`` materializes through that engine, not from
        the cells of the one it replaced."""
        from repro.harness import suite_runs
        from repro.harness.engine import configure, reset_engine

        try:
            configure(EngineConfig(jobs=1,
                                   cache_dir=str(tmp_path / "first")))
            suite_runs(0.1)
            second = configure(EngineConfig(
                jobs=1, cache_dir=str(tmp_path / "second")))
            assert len(suite_runs(0.1)) == 10
        finally:
            reset_engine()
        trace = second.stats.counts["trace"]
        assert trace["hits"] + trace["misses"] == 10
        assert list(second.cache.iter_entries())


class TestLateLoads:
    """A materialized cell sets its keys, length and counts at once and
    loads its program and columns on first use, so a plane bundle can
    vanish or rot between materializing a cell and reading it."""

    NAMES = ("sort", "rle", "crc")

    def test_columns_load_on_first_use(self, tmp_path):
        specs = [spec(workload=name) for name in self.NAMES]
        cold = make_engine(tmp_path).run_cells(specs)
        hot_engine = make_engine(tmp_path)
        hot = hot_engine.run_cells(specs)
        attached = hot_engine.plane.counters["attach_hits"]
        for warm, fresh in zip(hot, cold):
            assert not {"program", "pcs", "taken", "addrs"} & set(
                vars(warm.trace))
            assert not {"statics", "dead", "direct", "fused"} & set(
                vars(warm.analysis))
            assert len(warm.trace) == len(fresh.trace.pcs)
            assert warm.analysis.n_dead == fresh.analysis.n_dead
        assert hot_engine.plane.counters["attach_hits"] == attached
        first = hot[0]
        assert first.trace.pcs == cold[0].trace.pcs
        assert first.trace.taken == cold[0].trace.taken
        assert hot_engine.plane.counters["attach_hits"] == attached + 1
        assert first.analysis.dead == cold[0].analysis.dead
        assert first.trace.static_indices() == \
            cold[0].trace.static_indices()
        assert hot_engine.plane.counters["attach_hits"] == attached + 2
        assert first.analysis.statics.program is first.trace.program

    def test_damaged_bundles_fall_back_to_the_pickle_tier(self, tmp_path):
        """Bundles deleted or corrupted after materialization: the
        first column access recomputes the cell through the pickle
        tier, counts one fallback per cell, and simulation and predict
        results equal a clean run's."""
        from repro.harness import artifacts
        from repro.harness.runtable import RunTableContext
        from repro.predictors import PathDeadPredictor

        specs = [spec(workload=name) for name in self.NAMES]
        make_engine(tmp_path).run_cells(specs)
        clean = RunTableContext(SCALE, engine=make_engine(
            tmp_path, cache=False))
        hot = RunTableContext(SCALE, engine=make_engine(tmp_path))
        cells = hot.engine.run_cells(specs)
        plane = hot.engine.plane
        sort, rle, _crc = cells
        os.remove(plane.entry_path(
            artifacts.artifact_key("trace", sort.trace_key)))
        path = pathlib.Path(plane.entry_path(
            artifacts.artifact_key("analysis", rle.analysis_key)))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        artifacts._reset_verified()

        config = contended_config()
        for cell, reference in zip(cells,
                                   clean.engine.run_cells(specs)):
            for got, want in zip(hot.pair(cell, config),
                                 clean.pair(reference, config)):
                assert got.stats == want.stats
            assert hot.predict(cell, PathDeadPredictor(), 3) == \
                clean.predict(reference, PathDeadPredictor(), 3)
        robust = hot.engine.robustness()["artifacts"]
        assert robust["fallbacks"] == 2
        assert robust["quarantined"] == 1


class TestTimingStage:
    def test_simulate_cache_roundtrip(self, tmp_path):
        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec()])[0]
        config = contended_config()
        cold = engine.simulate(artifact.trace, config,
                               artifact.analysis,
                               trace_key=artifact.trace_key)
        assert engine.stats.misses("timing") == 1

        hot_engine = make_engine(tmp_path)
        hot_artifact = hot_engine.run_cells([spec()])[0]
        hot = hot_engine.simulate(hot_artifact.trace, config,
                                  hot_artifact.analysis,
                                  trace_key=hot_artifact.trace_key)
        assert hot_engine.stats.hits("timing") == 1
        assert hot.stats == cold.stats

    def test_machine_config_changes_the_key(self, tmp_path):
        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec()])[0]
        engine.simulate(artifact.trace, contended_config(),
                        artifact.analysis, trace_key=artifact.trace_key)
        engine.simulate(artifact.trace,
                        contended_config(phys_regs=56),
                        artifact.analysis, trace_key=artifact.trace_key)
        assert engine.stats.misses("timing") == 2

    def test_no_trace_key_runs_uncached(self, tmp_path):
        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec()])[0]
        result = engine.simulate(artifact.trace, default_config(),
                                 artifact.analysis, trace_key=None)
        assert result.stats.committed == len(artifact.trace)
        assert "timing" not in engine.stats.counts


def count_simulations(monkeypatch, path=None):
    """Count the real simulations behind the timing stage: a list of
    their register counts, or, for forked pool workers, one line per
    simulation appended to *path*."""
    from repro.harness import engine as engine_module

    calls = []
    real = engine_module.simulate

    def counting(trace, config, analysis=None):
        calls.append(config.phys_regs)
        if path is not None:
            with open(path, "a") as stream:
                stream.write("%d\n" % config.phys_regs)
        return real(trace, config, analysis)

    monkeypatch.setattr(engine_module, "simulate", counting)
    return calls


class TestRegisterReuse:
    """A larger-register config is served from a run that never waited
    on its free registers (``engine._timing_stage``)."""

    CELL = dict(workload="sort", scale=0.2)

    def e2_pair(self, smaller, eliminate):
        """E2's (smaller, 160-register) configs; on sort at scale 0.2
        the 104-register runs never wait on registers, the 44-register
        runs do."""
        return (contended_config(phys_regs=smaller, eliminate=eliminate),
                contended_config(phys_regs=160, eliminate=eliminate))

    def answer(self, engine, artifact, config):
        return engine.simulate(artifact.trace, config, artifact.analysis,
                               trace_key=artifact.trace_key)

    @pytest.mark.parametrize("eliminate", [False, True])
    @pytest.mark.parametrize("smaller, simulations", [(104, 1), (44, 2)])
    def test_served_only_from_a_certified_run(self, tmp_path, monkeypatch,
                                              smaller, simulations,
                                              eliminate):
        from repro.harness.engine import _certifies
        from repro.pipeline import simulate

        calls = count_simulations(monkeypatch)
        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec(**self.CELL)])[0]
        small, large = self.e2_pair(smaller, eliminate)
        first = self.answer(engine, artifact, small)
        assert _certifies(first) == (smaller == 104)
        served = self.answer(engine, artifact, large)
        assert len(calls) == simulations
        assert engine.stats.misses("timing") == 2
        direct = simulate(artifact.trace, large, artifact.analysis)
        assert served.config == large
        assert served.stats == direct.stats
        assert (served.l1d_misses, served.l2_misses) == \
            (direct.l1d_misses, direct.l2_misses)

        hot = make_engine(tmp_path)
        hot_artifact = hot.run_cells([spec(**self.CELL)])[0]
        again = self.answer(hot, hot_artifact, large)
        assert hot.stats.hits("timing") == 1
        assert len(calls) == simulations
        assert again.config == large and again.stats == direct.stats

    def test_served_span_says_reused(self, tmp_path, monkeypatch):
        from repro.obs import ObsConfig, configure_obs, reset_obs

        calls = count_simulations(monkeypatch)
        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec(**self.CELL)])[0]
        collector = configure_obs(ObsConfig())
        try:
            for config in self.e2_pair(104, True):
                self.answer(engine, artifact, config)
        finally:
            reset_obs()
        timing = [span.attrs for span in collector.tracer.spans
                  if span.name == "stage:timing"]
        assert [attrs.get("reused", False) for attrs in timing] == \
            [False, True]
        assert [attrs["hit"] for attrs in timing] == [False, False]
        assert len(calls) == 1

    @pytest.mark.parametrize("smaller, simulations", [(104, 1), (44, 2)])
    def test_prefetch_batch_serves_too(self, tmp_path, monkeypatch,
                                       smaller, simulations):
        from repro.pipeline import simulate

        log = tmp_path / "simulations.log"
        count_simulations(monkeypatch, path=str(log))
        engine = make_engine(tmp_path, jobs=2)
        artifact = engine.run_cells([spec(**self.CELL)])[0]
        small, large = self.e2_pair(smaller, True)
        engine.prefetch_simulations([(artifact, small),
                                     (artifact, large)])
        assert len(log.read_text().split()) == simulations
        served = self.answer(engine, artifact, large)
        assert engine.stats.misses("timing") == 0
        assert served.config == large
        assert served.stats == simulate(artifact.trace, large,
                                        artifact.analysis).stats


class TestSmoke:
    def test_hot_rerun_performs_zero_compile_or_trace_work(self,
                                                           tmp_path):
        """The CI smoke check: after one cold pass, a full re-run of
        the cell graph does no compile or trace stage work at all."""
        specs = [spec(workload=name)
                 for name in ("matmul", "sort", "rle")]
        make_engine(tmp_path).run_cells(specs)
        hot = make_engine(tmp_path)
        hot.run_cells(specs)
        for stage in ("compile", "trace", "analysis"):
            assert hot.stats.misses(stage) == 0, stage
            assert hot.stats.hits(stage) == len(specs), stage

    def test_no_cache_mode_never_touches_disk(self, tmp_path):
        engine = make_engine(tmp_path, cache=False, name="off")
        engine.run_cells([spec()])
        assert engine.cache is None
        assert not os.path.exists(str(tmp_path / "off"))


class TestRunMeta:
    def test_recorder_roundtrip(self, tmp_path):
        from repro.harness.runmeta import RunRecorder, summarize_runs
        from repro.obs.history import history_path, load_history

        recorder = RunRecorder(argv=["F1"], engine_info={"jobs": 2})
        recorder.record("F1", 1.25,
                        {"compile": {"hits": 10, "misses": 0,
                                     "seconds": 0.01}},
                        instructions=1234)
        path = recorder.write(str(tmp_path))
        assert path == history_path(str(tmp_path))
        documents, skipped = load_history(path)
        assert len(documents) == 1 and skipped == 0
        document = documents[0]
        assert document["experiments"][0]["id"] == "F1"
        assert document["totals"]["instructions"] == 1234
        assert document["totals"]["stages"]["compile"]["hits"] == 10
        assert document["engine"] == {"jobs": 2}
        assert document["kernel_passes"] == {}
        assert "F1" in summarize_runs(documents)

    def test_cli_cache_subcommand(self, tmp_path, capsys):
        from repro.harness.cli import main

        cache_dir = str(tmp_path / "clicache")
        engine = Engine(EngineConfig(cache=True, cache_dir=cache_dir))
        engine.run_cells([spec()])
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "compile" in out and "total" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        fresh = Engine(EngineConfig(cache=True, cache_dir=cache_dir))
        fresh.run_cells([spec()])
        assert fresh.stats.misses("compile") == 1  # really cleared

    def test_cli_runs_subcommand(self, tmp_path, capsys):
        from repro.harness.cli import main
        from repro.harness.runmeta import RunRecorder

        cache_dir = str(tmp_path / "clicache")
        recorder = RunRecorder(argv=["F1"])
        recorder.record("F1", 0.5, {}, instructions=10)
        recorder.write(cache_dir)
        assert main(["runs", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert recorder.run_id in out


def _cli(capsys, *argv):
    """``repro-harness`` in this process; returns its stdout."""
    from repro import obs
    from repro.harness.cli import main
    from repro.harness.engine import reset_engine

    try:
        code = main(list(argv))
    finally:
        obs.reset_obs()
        reset_engine()
    assert code == 0, argv
    return capsys.readouterr().out


def _records(capsys, cache_dir):
    """The run records that ``runs --json`` lists."""
    import json

    return json.loads(_cli(capsys, "runs", "--json",
                           "--cache-dir", cache_dir))


class TestRunLog:
    """Each CLI run is recorded once, in the one run log that every
    run view reads."""

    def test_experiment_run_leaves_one_record(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        _cli(capsys, "T1", "--scale", "0.1", "--cache-dir", cache_dir)
        assert not os.path.exists(os.path.join(cache_dir, "obs-history"))
        assert os.listdir(os.path.join(cache_dir, "runs")) == \
            ["history.jsonl"]
        records = _records(capsys, cache_dir)
        assert [record["experiments"][0]["id"] for record in records] \
            == ["T1"]
        assert records[0]["scale"] == 0.1
        assert "repetitions" not in records[0]
        for flag in ("--no-meta", "--no-history"):
            _cli(capsys, "T1", "--scale", "0.1", flag,
                 "--cache-dir", cache_dir)
        assert len(_records(capsys, cache_dir)) == 1

    def test_table_run_leaves_one_record(self, tmp_path, capsys):
        """``table run`` and ``table export`` append a record, and
        ``obs regress`` compares the newest only with table runs of the
        same ids, scale and repetitions."""
        from repro.obs import history

        cache_dir = str(tmp_path / "cache")
        for argv in (["T1", "--scale", "0.1"],
                     ["table", "run", "T1", "--scale", "0.1",
                      "--reps", "2"],
                     ["table", "run", "T1", "--scale", "0.2"],
                     ["table", "export", "T1", "--scale", "0.1"],
                     ["table", "run", "T1", "--scale", "0.1"]):
            _cli(capsys, *argv, "--cache-dir", cache_dir)
        records = _records(capsys, cache_dir)
        assert len(records) == 5
        table_run = records[-1]
        assert table_run["repetitions"] == 1
        assert table_run["run_tables"][0]["id"] == "T1"
        assert table_run["run_id"] in _cli(capsys, "runs",
                                           "--cache-dir", cache_dir)
        assert history.baseline_for(records, table_run) == [records[3]]
        out = _cli(capsys, "obs", "regress", "--cache-dir", cache_dir)
        assert "run %s vs 1 baseline record " % table_run["run_id"] \
            in out

    def test_clear_runs_removes_every_record(self, tmp_path, capsys):
        from repro.harness.cli import main

        cache_dir = str(tmp_path / "cache")
        _cli(capsys, "T1", "--scale", "0.1", "--obs",
             "--cache-dir", cache_dir)
        _cli(capsys, "table", "run", "T1", "--scale", "0.1",
             "--cache-dir", cache_dir)
        cleared = _cli(capsys, "cache", "clear", "--runs",
                       "--cache-dir", cache_dir)
        assert _records(capsys, cache_dir) == []
        assert "no recorded runs" in _cli(capsys, "obs", "trend",
                                          "--cache-dir", cache_dir)
        assert main(["obs", "regress", "--cache-dir", cache_dir]) == 1
        assert "no recorded runs" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cache_dir, "runs"))
        assert "removed 2 run records" in cleared

    def test_run_ids_are_unique_within_one_second(self, tmp_path,
                                                  capsys, monkeypatch):
        """Two runs that start in the same second of one process keep
        both records (and would keep both ``obs-<id>/`` directories)."""
        import time
        import types

        from repro.harness import runmeta

        frozen = time.localtime()
        monkeypatch.setattr(runmeta, "time", types.SimpleNamespace(
            strftime=lambda fmt: time.strftime(fmt, frozen)))
        cache_dir = str(tmp_path / "cache")
        for _ in range(2):
            _cli(capsys, "T1", "--scale", "0.1", "--cache-dir", cache_dir)
        run_ids = {record["run_id"]
                   for record in _records(capsys, cache_dir)}
        assert len(run_ids) == 2
