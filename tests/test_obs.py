"""The observability subsystem: timelines, spans, probes, and the
``--obs`` / ``obs`` CLI round trip."""

import json
import os
import pathlib

import pytest

from repro import obs
from repro.harness.engine import reset_engine
from repro.obs.introspect import PredictorProbe, table_health
from repro.obs.spans import SpanTracer, load_spans, render_span_tree
from repro.obs.timeline import Timeline


@pytest.fixture
def telemetry():
    """A fresh collector for the test, removed afterwards."""
    collector = obs.configure_obs(obs.ObsConfig(sample_interval=64,
                                                timeline_capacity=128))
    yield collector
    obs.reset_obs()


@pytest.fixture
def no_telemetry():
    obs.reset_obs()
    yield
    obs.reset_obs()


# ---------------------------------------------------------------------
# Timelines
# ---------------------------------------------------------------------


def _feed(timeline, cycles):
    for cycle in range(cycles):
        if cycle >= timeline.next_due:
            timeline.record(cycle, cycle % 7, 1, 2, 3, 4, 5, 6,
                            cycle, 0, 0, cycle)


def test_timeline_sampling_is_deterministic():
    first = Timeline(interval=8, capacity=16)
    second = Timeline(interval=8, capacity=16)
    _feed(first, 1000)
    _feed(second, 1000)
    assert first.to_dict() == second.to_dict()


def test_timeline_decimates_when_full():
    timeline = Timeline(interval=1, capacity=8)
    _feed(timeline, 64)
    doc = timeline.to_dict()
    # Bounded memory, widened interval, full-run coverage.
    assert doc["samples"] <= 8
    assert doc["interval"] > 1
    cycles = doc["columns"]["cycle"]
    assert cycles == sorted(cycles)
    assert cycles[0] == 0


def test_simulator_records_timeline(simple_loop_trace, telemetry):
    from repro.pipeline import MachineConfig
    from repro.pipeline.core import simulate

    config = MachineConfig()
    first = simulate(simple_loop_trace, config)
    second = simulate(simple_loop_trace, config)
    assert first.timeline is not None
    assert first.timeline == second.timeline
    cycles = first.timeline["columns"]["cycle"]
    # The closing sample pins the end of the run.
    assert cycles[-1] == first.stats.cycles - 1


def test_simulator_timeline_off_by_default(simple_loop_trace,
                                           no_telemetry):
    from repro.pipeline import MachineConfig
    from repro.pipeline.core import simulate

    result = simulate(simple_loop_trace, MachineConfig())
    assert result.timeline is None


# ---------------------------------------------------------------------
# Predictor introspection
# ---------------------------------------------------------------------


def test_probe_confusion_sums_to_aggregate_stats(analyzed_mini_c):
    from repro.predictors.dead import (
        PathDeadPredictor,
        evaluate_predictor,
    )

    _machine, _trace, analysis = analyzed_mini_c
    probe = PredictorProbe()
    stats = evaluate_predictor(analysis, PathDeadPredictor(entries=256),
                               probe=probe)
    tp, fp, tn, fn = probe.totals()
    assert tp == stats.true_positives
    assert fp == stats.false_positives
    assert tp + fp == stats.predicted_dead
    assert tp + fn == stats.dead
    assert tp + fp + tn + fn == stats.eligible
    assert probe.accuracy == pytest.approx(stats.accuracy)
    assert probe.coverage == pytest.approx(stats.coverage)


def test_probe_tracks_table_churn_and_health(analyzed_mini_c):
    from repro.predictors.dead import (
        PathDeadPredictor,
        evaluate_predictor,
    )

    _machine, _trace, analysis = analyzed_mini_c
    predictor = PathDeadPredictor(entries=256)
    probe = PredictorProbe()
    evaluate_predictor(analysis, predictor, probe=probe)
    health = table_health(predictor)
    assert probe.allocations >= health["occupied"] > 0
    assert probe.evictions == probe.allocations - health["occupied"]
    assert sum(health["confidence_distribution"].values()) == \
        health["occupied"]
    # The probe detaches after the walk (no lingering hot-path cost).
    assert predictor.probe is None


def test_probe_hotspots_rank_by_mispredictions():
    probe = PredictorProbe()
    for _ in range(5):
        probe.record(0x40, True, False)   # false positives
    probe.record(0x44, False, True)       # one false negative
    probe.record(0x48, True, True)        # correct
    spots = probe.hotspots(top=10)
    assert [spot["pc"] for spot in spots] == [0x40, 0x44]
    assert spots[0]["mispredicts"] == 5


# ---------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------


def test_spans_nest_and_roundtrip():
    tracer = SpanTracer()
    with tracer.span("run", run_id="r1"):
        with tracer.span("experiment", id="F6"):
            tracer.add("stage:compile", 0.25, hit=True)
        tracer.add("stage:paths", 0.5, hit=False)
    spans = load_spans(tracer.to_jsonl())
    by_name = {span["name"]: span for span in spans}
    assert by_name["experiment"]["parent_id"] == \
        by_name["run"]["span_id"]
    assert by_name["stage:compile"]["parent_id"] == \
        by_name["experiment"]["span_id"]
    assert by_name["stage:paths"]["parent_id"] == \
        by_name["run"]["span_id"]
    assert by_name["stage:compile"]["attrs"]["hit"] is True
    tree = render_span_tree(spans)
    assert "run" in tree and "stage:compile" in tree
    assert [span["name"] for span in spans].count("stage:compile") == 1


# ---------------------------------------------------------------------
# Engine + CLI integration
# ---------------------------------------------------------------------


def test_cli_obs_roundtrip(tmp_path, capsys):
    """One observed harness invocation leaves renderable artifacts:
    spans, at least one pipeline timeline, predictor hotspots, and a
    pstats profile per experiment."""
    from repro.harness.cli import main

    cache = str(tmp_path / "cache")
    try:
        assert main(["F6", "F7", "--scale", "0.3", "--obs",
                     "--profile", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "stored observability artifacts" in out

        runs_root = os.path.join(cache, "runs")
        obs_dirs = [name for name in os.listdir(runs_root)
                    if name.startswith("obs-")]
        assert len(obs_dirs) == 1
        obs_dir = os.path.join(runs_root, obs_dirs[0])
        timelines = json.loads(pathlib.Path(
            obs_dir, "timelines.json").read_text())["timelines"]
        assert timelines, "F7 simulations must register timelines"
        probes = json.loads(pathlib.Path(
            obs_dir, "predictors.json").read_text())["probes"]
        assert probes, "F6 evaluations must register probes"
        assert os.path.exists(os.path.join(obs_dir,
                                           "profile-F6.pstats"))

        # The span trace holds one experiment span per experiment.
        spans = load_spans(pathlib.Path(obs_dir,
                                        "spans.jsonl").read_text())
        assert [span["name"] for span in spans].count("experiment") == 2

        assert main(["obs", "report", "last",
                     "--cache-dir", cache]) == 0
        report = capsys.readouterr().out
        assert "spans (slowest first)" in report
        assert "pipeline timelines" in report
        assert "predictor hotspots" in report
        assert "experiment" in report
        assert not os.path.exists(os.path.join(obs_dir, "metrics.prom"))
    finally:
        obs.reset_obs()
        reset_engine()


@pytest.mark.parametrize("action", ["export", "serve"])
def test_cli_retired_obs_actions_exit_2(tmp_path, capsys, action):
    """The metrics exposition and its HTTP server are gone: their
    ``obs`` actions are argparse errors."""
    from repro.harness.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["obs", action, "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_obs_report_without_artifacts(tmp_path, capsys):
    from repro.harness.cli import main

    assert main(["obs", "report", "last",
                 "--cache-dir", str(tmp_path / "empty")]) == 1
    assert "no run matches" in capsys.readouterr().err


def test_f7_surfaces_dcache_misses():
    from repro.harness import run_experiment

    result = run_experiment("F7", scale=0.3)
    table = result.tables[0]
    assert "D$ misses" in table.columns
    for name, reductions in result.data.items():
        assert len(reductions) == 6
