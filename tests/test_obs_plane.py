"""The cross-process telemetry plane: worker delta snapshot/merge,
serial-vs-parallel span parity, and the run-history store and its
regression gate."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.harness.engine import CellSpec, Engine, EngineConfig
from repro.lang import CompilerOptions
from repro.obs import delta as obs_delta
from repro.obs import history as obs_history
from repro.obs.spans import SpanTracer
from repro.obs.timeline import COLUMNS, Timeline


@pytest.fixture
def telemetry():
    collector = obs.configure_obs(obs.ObsConfig(sample_interval=64,
                                                timeline_capacity=128))
    yield collector
    obs.reset_obs()


@pytest.fixture
def no_telemetry():
    obs.reset_obs()
    yield
    obs.reset_obs()


def spec(workload="matmul", scale=0.2, **options):
    return CellSpec(workload=workload, scale=scale,
                    options=CompilerOptions(**options))


# ---------------------------------------------------------------------
# Delta snapshot + merge
# ---------------------------------------------------------------------


class TestDelta:
    def test_snapshot_is_none_when_disabled(self, no_telemetry):
        assert obs_delta.snapshot_delta() is None

    def test_roundtrip_labels_series_with_worker(self, telemetry):
        with telemetry.tracer.span("task"):
            telemetry.tracer.add("kernel:decode", 0.25, items=10)
        snap = obs_delta.snapshot_delta()
        assert snap["schema"] == obs_delta.WIRE_SCHEMA
        assert snap["pid"] == os.getpid()
        assert set(snap) == {"schema", "pid", "spans"}

        parent = obs.configure_obs(obs.ObsConfig())
        obs_delta.merge_delta(parent, snap, worker="1")
        # Spans arrive worker-stamped with parentage and attributes
        # intact.
        merged = {span.name: span for span in parent.tracer.spans}
        assert merged["kernel:decode"].attrs == {"items": 10,
                                                 "worker": "1"}
        assert merged["kernel:decode"].seconds == pytest.approx(0.25)
        assert merged["kernel:decode"].parent_id == \
            merged["task"].span_id
        assert merged["task"].attrs["worker"] == "1"

    def test_merge_is_additive_across_workers(self, telemetry):
        telemetry.tracer.add("kernel:decode", 0.1, items=5)
        telemetry.tracer.add("stage:trace", 0.2, hit=False)
        snap = obs_delta.snapshot_delta()

        parent = obs.configure_obs(obs.ObsConfig())
        obs_delta.merge_delta(parent, snap, worker="0")
        obs_delta.merge_delta(parent, snap, worker="0")
        obs_delta.merge_delta(parent, snap, worker="1")
        by_worker = {}
        for span in parent.tracer.spans:
            key = (span.name, span.attrs["worker"])
            by_worker[key] = by_worker.get(key, 0) + 1
        assert by_worker == {("kernel:decode", "0"): 2,
                             ("stage:trace", "0"): 2,
                             ("kernel:decode", "1"): 1,
                             ("stage:trace", "1"): 1}
        table = obs_history.kernel_pass_table(
            span.to_dict() for span in parent.tracer.spans)
        assert table["decode"]["calls"] == 3
        assert table["decode"]["items"] == 15

    def test_schema_mismatch_is_dropped_whole(self, telemetry):
        telemetry.tracer.add("kernel:decode", 0.1, items=5)
        snap = obs_delta.snapshot_delta()
        snap["schema"] = obs_delta.WIRE_SCHEMA + 1

        parent = obs.configure_obs(obs.ObsConfig())
        obs_delta.merge_delta(parent, snap, worker="0")
        assert not parent.tracer.spans


# ---------------------------------------------------------------------
# Span attach + merge ordering
# ---------------------------------------------------------------------


class TestSpanAttach:
    def test_add_with_explicit_parent(self):
        tracer = SpanTracer()
        with tracer.span("run") as run:
            with tracer.span("experiment"):
                pass
        late = tracer.add("stage:trace", 0.5, parent_id=run.span_id)
        assert late.parent_id == run.span_id
        root = tracer.add("orphan", 0.1, parent_id=None)
        assert root.parent_id is None
        # The default still lands under the stack top (none here).
        assert tracer.add("floating", 0.1).parent_id is None

    def test_merge_resolves_children_before_parents(self):
        tracer = SpanTracer()
        # Child listed first: the id map must resolve it anyway.
        docs = [
            {"span_id": 12, "parent_id": 7, "name": "kernel:decode",
             "started_at": 1.0, "seconds": 0.2, "attrs": {}},
            {"span_id": 7, "parent_id": None, "name": "cell",
             "started_at": 0.5, "seconds": 0.9, "attrs": {}},
        ]
        with tracer.span("run") as run:
            merged = tracer.merge(docs, worker="2")
        child, parent = merged
        assert child.parent_id == parent.span_id
        assert parent.parent_id == run.span_id  # root → stack top
        assert all(span.attrs["worker"] == "2" for span in merged)


# ---------------------------------------------------------------------
# Serial vs pooled parity (the tentpole's core claim)
# ---------------------------------------------------------------------


def _span_counts(collector):
    """Per-pass ``kernel:`` span counts and ``items`` sums, and
    per-``(stage, hit)`` ``stage:`` span counts.  Seconds are
    timing-dependent and deliberately excluded — parity is about
    *events*."""
    passes = {}
    stages = {}
    for span in collector.tracer.spans:
        if span.name.startswith("kernel:"):
            calls, items = passes.get(span.name, (0, 0))
            passes[span.name] = (calls + 1,
                                 items + span.attrs.get("items", 0))
        elif span.name.startswith("stage:"):
            key = (span.name, span.attrs["hit"])
            stages[key] = stages.get(key, 0) + 1
    return passes, stages


class TestWorkerParity:
    def test_pool_metrics_match_serial(self, tmp_path):
        """A jobs=2 run merges worker deltas such that the span record
        matches the serial run's: the same ``kernel:`` span counts and
        item sums per pass, and the same ``stage:`` span counts per
        (stage, hit).  Every span a worker recorded, and every stage
        span of a cell a worker ran, carries ``worker``."""
        specs = [spec("matmul"), spec("sort"), spec("crc")]
        try:
            serial_collector = obs.configure_obs(obs.ObsConfig())
            serial = Engine(EngineConfig(
                jobs=1, cache=True, cache_dir=str(tmp_path / "serial")))
            serial.run_cells(specs)

            pooled_collector = obs.configure_obs(obs.ObsConfig())
            pooled = Engine(EngineConfig(
                jobs=2, cache=True, cache_dir=str(tmp_path / "pool")))
            pooled.run_cells(specs)
        finally:
            obs.reset_obs()

        serial_passes, serial_stages = _span_counts(serial_collector)
        assert serial_passes and serial_stages
        assert _span_counts(pooled_collector) == \
            (serial_passes, serial_stages)
        assert not any("worker" in span.attrs
                       for span in serial_collector.tracer.spans)
        # Every kernel pass ran in a worker, and every stage span is
        # stamped with the worker that computed its cell.
        assert all("worker" in span.attrs
                   for span in pooled_collector.tracer.spans)
        # StageStats and the stage spans are one record.
        assert serial_stages == {
            ("stage:" + stage, hit): bucket["hits" if hit else "misses"]
            for stage, bucket in pooled.stats.counts.items()
            for hit in (True, False)
            if bucket["hits" if hit else "misses"]}

    def test_disabled_mode_ships_no_delta(self, tmp_path, no_telemetry):
        """With telemetry off the worker installs no collector and its
        payload carries no ``obs_delta`` key — only the task's
        robustness counters ride along."""
        from repro.harness.engine import _pool_cell_worker

        config = EngineConfig(jobs=1, cache=True,
                              cache_dir=str(tmp_path / "off"))
        payload = _pool_cell_worker(spec("crc", scale=0.1), config,
                                    (), None)
        assert "obs_delta" not in payload
        assert set(payload["counters"]) == {"cache", "artifacts",
                                            "faults"}
        assert obs.get_collector() is None

    def test_worker_collector_does_not_leak(self, tmp_path,
                                            no_telemetry):
        """An observed worker task restores the no-collector state
        afterwards (in-process call — the pool reuses processes)."""
        from repro.harness.engine import _pool_cell_worker

        config = EngineConfig(jobs=1, cache=True,
                              cache_dir=str(tmp_path / "on"))
        payload = _pool_cell_worker(spec("crc", scale=0.1), config,
                                    (), obs.ObsConfig())
        assert payload["obs_delta"]["schema"] == obs_delta.WIRE_SCHEMA
        assert payload["obs_delta"]["spans"]
        assert obs.get_collector() is None


# ---------------------------------------------------------------------
# Run history + regression gate
# ---------------------------------------------------------------------


def _record(run_id="r1", wall=1.0, pass_seconds=0.01, items=1000,
            experiments=("F7",)):
    run_doc = {
        "run_id": run_id,
        "started_at": "2026-08-08T00:00:00",
        "argv": list(experiments),
        "engine": {"jobs": 1},
        "experiments": [{"id": name} for name in experiments],
        "totals": {"wall_s": wall, "instructions": 123,
                   "stages": {"trace": {"hits": 1, "misses": 2,
                                        "seconds": 0.5}}},
        "robustness": {"retries": 0, "pool_faults": 0,
                       "degraded_to_serial": False,
                       "failed_cells": []},
    }
    passes = {"decode": {"calls": 2, "items": items,
                         "seconds": pass_seconds}}
    return obs_history.make_record(run_doc, passes, scale=0.3)


class TestHistory:
    def test_append_load_roundtrip(self, tmp_path):
        cache = str(tmp_path)
        path = obs_history.append_record(cache, _record("r1"))
        obs_history.append_record(cache, _record("r2", wall=2.0))
        assert path == obs_history.history_path(cache)
        records, skipped = obs_history.load_history(path)
        assert skipped == 0
        assert [r["run_id"] for r in records] == ["r1", "r2"]
        assert records[1]["wall_s"] == 2.0
        assert records[0]["kernel_passes"]["decode"]["items"] == 1000

    def test_tampered_and_torn_lines_are_skipped(self, tmp_path):
        cache = str(tmp_path)
        path = obs_history.append_record(cache, _record("good"))
        with open(path, "a") as stream:
            tampered = dict(_record("evil"))
            tampered["wall_s"] = 99.0  # checksum now stale
            stream.write(json.dumps(tampered) + "\n")
            stream.write('{"run_id": "torn", "wal\n')  # torn append
        records, skipped = obs_history.load_history(path)
        assert [r["run_id"] for r in records] == ["good"]
        assert skipped == 2

    def test_fingerprint_separates_configs(self):
        assert obs_history.fingerprint(_record()) == \
            obs_history.fingerprint(_record("other"))
        assert obs_history.fingerprint(_record()) != \
            obs_history.fingerprint(_record(experiments=("F8",)))

    def test_regress_flags_slowed_pass_and_wall(self):
        baseline = [_record("b%d" % i) for i in range(3)]
        fast = _record("latest")
        assert obs_history.compare_to_baseline(fast, baseline,
                                               threshold=2.0) == []
        slow = _record("latest", wall=10.0, pass_seconds=0.2)
        regressions = obs_history.compare_to_baseline(slow, baseline,
                                                      threshold=2.0)
        names = {entry["metric"] for entry in regressions}
        assert "wall_s" in names
        assert "pass:decode:s_per_Mitem" in names

    def test_rate_tracking_absorbs_workload_growth(self):
        """Twice the items in twice the seconds is the same rate — not
        a regression (raw seconds would flag it)."""
        baseline = [_record("b", pass_seconds=0.01, items=1000)]
        bigger = _record("latest", pass_seconds=0.02, items=2000)
        assert obs_history.compare_to_baseline(bigger, baseline,
                                               threshold=1.5) == []

    def test_baseline_for_filters_by_fingerprint(self):
        records = [_record("a"), _record("odd", experiments=("F8",)),
                   _record("b"), _record("latest")]
        baseline = obs_history.baseline_for(records, records[-1],
                                            window=5)
        assert [r["run_id"] for r in baseline] == ["a", "b"]
        everything = obs_history.baseline_for(records, records[-1],
                                              window=5,
                                              any_fingerprint=True)
        assert len(everything) == 3

    def test_kernel_pass_table_sums_worker_series(self):
        spans = [{"name": "kernel:decode", "seconds": 0.125,
                  "attrs": {"items": 250, "worker": worker}}
                 for worker in ("0", "0", "1", "1")]
        spans.append({"name": "stage:trace", "seconds": 1.0,
                      "attrs": {"hit": False}})
        table = obs_history.kernel_pass_table(spans)
        assert table == {"decode": {"calls": 4, "items": 1000,
                                    "seconds": pytest.approx(0.5)}}

    def test_cli_history_trend_and_regress_gate(self, tmp_path,
                                                capsys):
        from repro.harness.cli import main

        cache = str(tmp_path / "cache")
        for run_id in ("r1", "r2"):
            obs_history.append_record(cache, _record(run_id))
        assert main(["obs", "history", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "r1" in out and "r2" in out
        assert main(["obs", "trend", "--cache-dir", cache]) == 0
        assert "decode" in capsys.readouterr().out

        assert main(["obs", "regress", "--cache-dir", cache]) == 0
        assert "ok: no tracked metric" in capsys.readouterr().out
        obs_history.append_record(
            cache, _record("slow", wall=50.0, pass_seconds=0.5))
        assert main(["obs", "regress", "--cache-dir", cache]) == 1
        assert "wall_s" in capsys.readouterr().out

    def test_cli_regress_against_committed_baseline(self, tmp_path,
                                                    capsys):
        from repro.harness.cli import main

        cache = str(tmp_path / "cache")
        obs_history.append_record(cache, _record("latest"))
        committed = tmp_path / "baseline.jsonl"
        with open(committed, "w") as stream:
            stream.write(json.dumps(_record("base"), sort_keys=True,
                                    separators=(",", ":")) + "\n")
        assert main(["obs", "regress", "--cache-dir", cache,
                     "--against", str(committed)]) == 0
        assert "1 baseline record" in capsys.readouterr().out


def _append_history_worker(cache: str, worker: int, count: int) -> None:
    """Child-process body for the concurrent-append test (module level
    so it survives both fork and spawn starts)."""
    for index in range(count):
        obs_history.append_record(
            cache, _record("w%d-%03d" % (worker, index)))


class TestConcurrentHistory:
    def test_multiprocess_appends_drop_nothing(self, tmp_path):
        """Many processes hammering one history.jsonl must produce
        zero torn lines and zero lost records — the locked
        single-write O_APPEND contract parallel CLI runs rely on."""
        import multiprocessing

        cache = str(tmp_path)
        workers, per_worker = 3, 25
        context = multiprocessing.get_context()
        processes = [
            context.Process(target=_append_history_worker,
                            args=(cache, worker, per_worker))
            for worker in range(workers)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        records, skipped = obs_history.load_history(
            obs_history.history_path(cache))
        assert skipped == 0
        run_ids = [record["run_id"] for record in records]
        assert len(run_ids) == workers * per_worker
        assert len(set(run_ids)) == workers * per_worker

    def test_cli_history_reports_corrupt_line_count(self, tmp_path,
                                                    capsys):
        from repro.harness.cli import main

        cache = str(tmp_path / "cache")
        path = obs_history.append_record(cache, _record("good"))
        with open(path, "a") as stream:
            stream.write('{"run_id": "torn", "wal\n')
        assert main(["obs", "history", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert "1 record, 1 corrupt line skipped" in captured.out
        assert "skipped 1 corrupt history line" in captured.err


# ---------------------------------------------------------------------
# Monotonic span timing
# ---------------------------------------------------------------------


class TestMonotonicSpans:
    def test_wall_clock_step_cannot_skew_spans(self, monkeypatch):
        """An NTP-style wall-clock step mid-run must not reorder span
        starts or corrupt durations: the tracer reads the wall clock
        once at construction and derives everything else from the
        monotonic clock."""
        from repro.obs import spans as spans_module

        fake = {"wall": 1_000_000.0, "mono": 50.0}
        monkeypatch.setattr(spans_module.time, "time",
                            lambda: fake["wall"])
        monkeypatch.setattr(spans_module.time, "monotonic",
                            lambda: fake["mono"])
        tracer = SpanTracer()
        with tracer.span("outer"):
            fake["mono"] += 1.0
            fake["wall"] -= 3600.0  # the clock steps back an hour
            with tracer.span("inner"):
                fake["mono"] += 2.0
            fake["mono"] += 0.5
        outer, inner = tracer.spans
        assert outer.seconds == pytest.approx(3.5)
        assert inner.seconds == pytest.approx(2.0)
        # started_at stamps stay ordered and epoch-anchored even
        # though time.time() now reads an hour earlier.
        assert inner.started_at == pytest.approx(
            outer.started_at + 1.0)
        assert outer.started_at == pytest.approx(1_000_000.0)

    def test_add_backdates_on_the_steady_clock(self, monkeypatch):
        from repro.obs import spans as spans_module

        fake = {"wall": 500.0, "mono": 10.0}
        monkeypatch.setattr(spans_module.time, "time",
                            lambda: fake["wall"])
        monkeypatch.setattr(spans_module.time, "monotonic",
                            lambda: fake["mono"])
        tracer = SpanTracer()
        fake["mono"] += 8.0
        fake["wall"] += 9999.0  # a forward step changes nothing
        record = tracer.add("post-hoc", seconds=3.0)
        assert record.started_at == pytest.approx(500.0 + 8.0 - 3.0)
        assert record.seconds == 3.0


# ---------------------------------------------------------------------
# Timeline decimation edges
# ---------------------------------------------------------------------


def _sample(timeline, cycle):
    timeline.record(*([cycle] + [0] * (len(COLUMNS) - 1)))


class TestTimelineEdges:
    def test_decimation_at_exact_capacity(self):
        timeline = Timeline(interval=1, capacity=8)
        for cycle in range(8):
            _sample(timeline, cycle)
        # The 8th sample triggers in-place decimation: every other
        # sample dropped, interval doubled, next_due re-anchored.
        assert timeline.columns["cycle"] == [0, 2, 4, 6]
        assert timeline.interval == 2
        assert timeline.next_due == 8

    def test_capacity_plus_one_keeps_growing(self):
        timeline = Timeline(interval=1, capacity=8)
        for cycle in range(8):
            _sample(timeline, cycle)
        _sample(timeline, 8)
        assert timeline.columns["cycle"] == [0, 2, 4, 6, 8]
        assert timeline.interval == 2
        assert timeline.next_due == 10
        assert len(timeline) == 5
