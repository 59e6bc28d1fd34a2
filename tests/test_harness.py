"""The experiment harness: every experiment runs, and the headline
reproduction claims hold."""

import os

import pytest

from repro.harness import ALL_EXPERIMENTS, run_experiment, suite_runs
from repro.harness.tables import Table, percent, signed_percent

SMALL = 0.3


def test_registry_complete():
    assert set(ALL_EXPERIMENTS) == {
        "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
        "T1", "A1", "A2", "A3", "A4", "A5", "A6", "E1", "E2"}


def test_unknown_experiment():
    with pytest.raises(KeyError):
        run_experiment("F99")


def test_suite_runs_cached():
    first = suite_runs(SMALL)
    second = suite_runs(SMALL)
    assert first is second
    assert len(first) == 10


@pytest.mark.parametrize("identifier", ["F1", "F2", "F3", "F4", "T1"])
def test_cheap_experiments_render(identifier):
    result = run_experiment(identifier, scale=SMALL)
    text = result.render()
    assert result.id == identifier
    assert identifier in text
    for table in result.tables:
        assert table.rows


def test_f1_reproduces_the_dead_band():
    """Paper: 3-16% of dynamic instructions are dead."""
    result = run_experiment("F1", scale=1.0)
    assert 0.02 < result.data["min"] < 0.08
    assert 0.10 < result.data["max"] < 0.20
    assert 0.05 < result.data["average"] < 0.15


def test_f2_majority_from_partially_dead():
    result = run_experiment("F2", scale=1.0)
    assert result.data["suite_share"] > 0.5


def test_f3_scheduling_creates_deadness():
    result = run_experiment("F3", scale=1.0)
    for name, o2 in result.data["o2"].items():
        assert o2 >= result.data["o0"][name] - 1e-9
    # On average the scheduler at least doubles the dead fraction.
    mean_o0 = sum(result.data["o0"].values()) / len(result.data["o0"])
    mean_o2 = sum(result.data["o2"].values()) / len(result.data["o2"])
    assert mean_o2 > 2 * mean_o0


def test_f5_predictor_headline():
    """Paper: 93% accuracy, >91% coverage, <5KB.  Our operating point
    reaches the same accuracy at slightly lower coverage; the test
    pins the reproduced band."""
    result = run_experiment("F5", scale=1.0)
    state_kb, accuracy, coverage = result.data[2048]
    assert state_kb < 5.0
    assert accuracy > 0.92
    assert coverage > 0.85


def test_f6_path_beats_baselines():
    result = run_experiment("F6", scale=1.0)
    path_acc, path_cov = result.data["path-indexed (paper)"]
    bimodal_acc, bimodal_cov = result.data["bimodal (PC only)"]
    assert path_cov > bimodal_cov + 0.10
    assert path_acc > bimodal_acc
    oracle_acc, oracle_cov = result.data["oracle"]
    assert oracle_acc == 1.0 and oracle_cov == 1.0
    # The ideal static profile is perfectly accurate but has a tiny
    # coverage ceiling: it cannot touch partially dead statics (F2).
    profile_acc, profile_cov = result.data["profile (ideal static)"]
    assert profile_acc > 0.99
    assert profile_cov < 0.25
    assert path_cov > profile_cov + 0.5


def test_f7_resource_reductions():
    result = run_experiment("F7", scale=SMALL)
    averages = result.data["averages"]
    # preg allocs / frees / rf writes average over 4%, and at least one
    # benchmark in some category exceeds 10% (the paper's "sometimes
    # exceeding 10%").
    assert averages[0] > 0.04
    assert averages[3] > 0.04
    best = max(max(reductions) for name, reductions in
               result.data.items() if name != "averages")
    assert best > 0.10


def test_f8_contended_speedup():
    result = run_experiment("F8", scale=0.5)
    assert result.data["mean_contended"] > 0.01
    assert result.data["mean_contended"] > result.data["mean_default"]
    assert abs(result.data["mean_default"]) < 0.02


def test_a1_path_info_helps_coverage():
    result = run_experiment("A1", scale=SMALL)
    no_path_cov = result.data[0][1]
    with_path_cov = result.data[3][1]
    assert with_path_cov > no_path_cov


def test_a2_runs(capsys):
    result = run_experiment("A2", scale=SMALL)
    assert len(result.data) == 6


def test_a3_replay_beats_flush():
    result = run_experiment("A3", scale=SMALL)
    replay = result.data["replay (default)"]
    flush = result.data["flush, 12-cycle penalty"]
    assert replay > flush


def test_cli_runs_selected(capsys):
    from repro.harness.cli import main

    assert main(["F1", "--scale", "0.3"]) == 0
    captured = capsys.readouterr()
    assert "F1" in captured.out
    assert "suite" in captured.out


def test_cli_rejects_unknown():
    from repro.harness.cli import main

    # "serve" is not a subcommand: it is an unknown experiment id.
    for argv in (["F99"], ["serve"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


@pytest.mark.parametrize("command", [["runs"], ["cache", "stats"],
                                     ["obs", "trend"]], ids=" ".join)
def test_cache_commands_ignore_engine_env(command, monkeypatch, tmp_path,
                                          capsys):
    """`runs`, `cache` and `obs` read only REPRO_CACHE_DIR, so a
    malformed engine variable must not stop them."""
    from repro.harness.cli import main

    monkeypatch.setenv("REPRO_JOBS", "abc")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(command) == 0
    if command[0] == "cache":
        assert "cache root: %s" % tmp_path in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["runs", "--last", "0"],
    ["runs", "--last", "-1"],
    ["obs", "trend", "--last", "0"],
    ["obs", "trend", "--last", "-1"],
    ["obs", "regress", "--window", "0"],
    ["obs", "report", "--top", "-1"],
    ["obs", "hotspots", "--top", "0"],
    ["F1", "--scale", "0.3", "--no-meta", "--cell-timeout", "-1"],
    ["F1", "--scale", "0.3", "--no-meta", "--cell-timeout", "0"],
    ["cache", "gc", "--max-bytes", "-1"],
    ["cache", "gc", "--tmp-max-age", "-1"],
    ["cache", "gc", "--tmp-max-age", "nan"],
], ids=" ".join)
def test_cli_rejects_non_positive_flags(argv, monkeypatch, tmp_path,
                                        capsys):
    """Counts slice (``records[-0:]`` is every record) and the cell
    timeout bounds each pool task, so 0 and below are usage errors.
    ``cache gc`` bounds below 0 would evict every entry and sweep a
    concurrent writer's fresh ``*.tmp`` file, so they are refused
    before the cache is touched."""
    from repro.harness.cachedir import CacheDir
    from repro.harness.cli import main

    cache = CacheDir(str(tmp_path))
    cache.store("compile", "ab" * 32, "entry")
    entry = cache.entry_path("compile", "ab" * 32)
    live_temp = os.path.join(os.path.dirname(entry), "writer.tmp")
    open(live_temp, "w").close()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    flag = argv[-2].lstrip("-")
    assert "%s must be a" % flag in capsys.readouterr().err
    assert os.path.exists(entry) and os.path.exists(live_temp)


class TestTables:
    def test_render(self):
        table = Table("title", ["a", "bb"])
        table.add_row(1, 2.5)
        text = table.render()
        assert "title" in text and "2.50" in text

    def test_arity_checked(self):
        table = Table("t", ["a"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_percent_helpers(self):
        assert percent(0.123) == "12.3%"
        assert signed_percent(0.05) == "+5.0%"
        assert signed_percent(-0.05) == "-5.0%"
