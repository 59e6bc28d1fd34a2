"""Tests of the benchmark's pure helpers.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/e2e`` (not part
of the tier-1 suite, which collects ``tests/`` only).
"""

from __future__ import annotations

import json
import os

import pytest

import compare
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def span(span_id, parent, name, start, end, pid=1, **attrs):
    record = {"id": span_id, "parent": parent, "name": name,
              "start": start, "end": end, "pid": pid}
    record.update(attrs)
    return record


NESTED = [
    span("1.1", None, "pass", 0.0, 10.0),
    span("1.2", "1.1", "experiment", 1.0, 9.0, experiment="F1"),
    span("1.3", "1.2", "pipeline.simulate", 2.0, 6.0, committed=400,
         cycles=300),
    span("1.4", "1.3", "predictors.paths", 3.0, 4.0),
    span("1.5", "1.2", "cache.load", 7.0, 8.0, hit=True),
    span("1.6", "1.2", "cache.load", 8.0, 8.5, hit=False),
    # A worker's tree: its root has no parent and overlaps the pass.
    span("2.1", None, "pool.cell", 2.0, 5.0, pid=2),
    span("2.2", "2.1", "lang.hoist", 2.5, 4.5, pid=2),
]


def test_self_time_subtracts_direct_children_only():
    own = spans.self_times(NESTED)
    assert own["1.1"] == pytest.approx(2.0)      # 10 - experiment 8
    assert own["1.2"] == pytest.approx(2.5)      # 8 - 4 - 1 - 0.5
    assert own["1.3"] == pytest.approx(3.0)      # 4 - paths 1
    assert own["1.4"] == pytest.approx(1.0)
    assert own["2.1"] == pytest.approx(1.0)      # 3 - hoist 2


def test_self_times_of_one_process_add_up_to_its_root():
    own = spans.self_times(NESTED)
    main = sum(seconds for span_id, seconds in own.items()
               if span_id.startswith("1."))
    assert main == pytest.approx(10.0)


def test_child_outside_its_parent_is_clipped():
    own = spans.self_times([span("1.1", None, "pass", 0.0, 2.0),
                            span("1.2", "1.1", "cache.load", 1.5, 3.0)])
    assert own["1.1"] == pytest.approx(1.5)


def test_pass_spans_drop_calls_outside_the_timed_region():
    after = span("1.9", None, "cache.load", 11.0, 11.5, hit=True)
    kept = spans.pass_spans(NESTED + [after])
    assert after not in kept and len(kept) == len(NESTED)


def test_layer_metrics():
    metrics = spans.layer_metrics(NESTED, experiments=["F1", "F2"])
    assert metrics["unattributed.s"] == pytest.approx(2.0)
    assert metrics["unattributed.frac"] == pytest.approx(0.2)
    assert metrics["pipeline.simulate.s"] == pytest.approx(3.0)
    assert metrics["pipeline.kinst_per_s"] == pytest.approx(0.1)
    assert metrics["cache.load.calls"] == 2
    assert metrics["cache.load.hit_ratio"] == pytest.approx(0.5)
    assert metrics["pool.worker_busy.s"] == pytest.approx(3.0)
    assert metrics["experiment.F1.s"] == pytest.approx(8.0)
    assert metrics["experiment.F2.s"] == 0


def test_merge_span_files_orders_spans_and_skips_torn_lines(tmp_path):
    with open(tmp_path / "spans-1.jsonl", "w") as stream:
        for record in NESTED[:6]:
            stream.write(json.dumps(record) + "\n")
    with open(tmp_path / "spans-2.jsonl", "w") as stream:
        for record in NESTED[6:]:
            stream.write(json.dumps(record) + "\n")
        stream.write('{"id": "2.3", "parent": null, "na')  # killed here
    (tmp_path / "other.txt").write_text("not spans\n")
    merged = spans.merge_span_files(str(tmp_path))
    assert sorted(record["id"] for record in merged) == sorted(
        record["id"] for record in NESTED)
    starts = [record["start"] for record in merged]
    assert starts == sorted(starts)


def test_recorder_nests_spans_and_forked_worker_writes_own_file(tmp_path):
    recorder = spans.Recorder(str(tmp_path))
    inner = recorder.wrap("inner", lambda value: value * 2,
                          lambda args, result: {"seen": result})
    with recorder.span("pass"):
        assert inner(21) == 42
    outer, leaf = recorder.spans[1], recorder.spans[0]
    assert (outer["name"], leaf["name"]) == ("pass", "inner")
    assert leaf["parent"] == outer["id"] and leaf["seen"] == 42
    pid = os.fork()
    if pid == 0:  # the worker: a root span appended to its own file
        try:
            inner(1)
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    recorder.write()
    merged = spans.merge_span_files(str(tmp_path))
    worker = [record for record in merged if record["pid"] == pid]
    assert len(worker) == 1 and worker[0]["parent"] is None
    assert len(merged) == 3


def test_median_and_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 8.0, 7.0, 9.0, 10.0]
    assert compare.median(values) == 5.5
    assert compare.quartiles(values) == (2.75, 8.25)
    assert compare.quartiles([3.0]) == (3.0, 3.0)
    assert compare.spread([2.0, 2.0, 2.0]) == 0.0


STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]


def test_verdict_unchanged_and_worse():
    assert compare.verdict(STEADY, [value * 1.02 for value in STEADY],
                           0.10) == "unchanged"
    assert compare.verdict(STEADY, [value * 1.2 for value in STEADY],
                           0.10) == "worse"


def test_verdict_better_needs_nine_of_ten_pairs_and_a_gap_over_iqr():
    faster = [value * 0.8 for value in STEADY]
    assert compare.verdict(STEADY, faster, 0.10) == "better"
    # Eight wins in ten pairs is not enough.
    mixed = faster[:8] + [11.0, 11.0]
    assert compare.verdict(STEADY, mixed, 0.10) != "better"
    # A gap inside A's interquartile range is not enough either.
    noisy = [8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0]
    assert compare.verdict(noisy, [value - 0.5 for value in noisy],
                           0.5) == "unchanged"


def test_verdict_higher_is_better():
    assert compare.verdict(STEADY, [value * 0.7 for value in STEADY],
                           0.10, better="higher") == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [6.0, 14.0, 7.0, 13.0, 10.0, 10.0, 6.0, 14.0, 9.0, 11.0]
    assert compare.verdict(STEADY, noisy, 0.10) == "unresolved"


def test_verdict_absolute_floor():
    small = [0.30, 0.30, 0.31, 0.30, 0.29]
    slower = [value + 0.04 for value in small]
    assert compare.verdict(small, slower, 0.10) == "worse"
    assert compare.verdict(small, slower, 0.10, floor=0.05) == "unchanged"


def test_benchmark_json_lists_the_metrics_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        benchmark = json.load(stream)
    assert [metric["name"] for metric in benchmark["end_to_end"]] == list(
        run.END_TO_END)
    with open(run.CANONICAL_FIXTURE) as stream:
        experiments = list(json.load(stream)["experiments"])
    units = run.per_layer_units(experiments)
    assert {metric["name"]: metric["unit"]
            for metric in benchmark["per_layer"]} == units
    assert [workload["name"] for workload in benchmark["workloads"]] == \
        run.WORKLOAD_NAMES


def test_gen_programs_are_seeded_and_cover_the_grid():
    first = run.gen_programs(3)
    assert first == run.gen_programs(3)
    assert first != run.gen_programs(4)
    cells = {tuple(name.split(":")[3:6]) for name in first}
    assert len(cells) == len(run.GEN_CELLS) == 9
