"""The cross-process telemetry plane (ISSUE 8): worker delta
snapshot/merge, serial-vs-parallel parity, the run-history store and
its regression gate, the exposition lint, and the /metrics endpoint."""

from __future__ import annotations

import json
import os
import urllib.request

import pytest

from repro import obs
from repro.harness.engine import CellSpec, Engine, EngineConfig
from repro.lang import CompilerOptions
from repro.obs import delta as obs_delta
from repro.obs import history as obs_history
from repro.obs.registry import (
    MetricsRegistry,
    lint_exposition,
    render_prometheus,
)
from repro.obs.serve import CONTENT_TYPE, MetricsServer, stored_provider
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
        telemetry.registry.counter("repro_x_total", "xs",
                                   stage="trace").inc(3)
        telemetry.registry.gauge("repro_depth", "d").set(7.0)
        telemetry.registry.histogram(
            "repro_lat_seconds", "lat", buckets=(1.0,)).observe(0.5)
        with telemetry.tracer.span("task"):
            telemetry.tracer.add("kernel:decode", 0.25, items=10)
        snap = obs_delta.snapshot_delta()
        assert snap["schema"] == obs_delta.WIRE_SCHEMA
        assert snap["pid"] == os.getpid()

        parent = obs.configure_obs(obs.ObsConfig())
        obs_delta.merge_delta(parent, snap, worker="1")
        series = {(name, tuple(sorted(labels.items()))): metric
                  for name, labels, metric in parent.registry.items()}
        counter = series[("repro_x_total",
                          (("stage", "trace"), ("worker", "1")))]
        assert counter.value == 3
        gauge = series[("repro_depth", (("worker", "1"),))]
        assert gauge.value == 7.0
        histogram = series[("repro_lat_seconds", (("worker", "1"),))]
        assert histogram.count == 1
        assert histogram.total == pytest.approx(0.5)
        # Spans arrive worker-stamped with parentage intact.
        merged = {span.name: span for span in parent.tracer.spans}
        assert merged["kernel:decode"].attrs["worker"] == "1"
        assert merged["kernel:decode"].parent_id == \
            merged["task"].span_id

    def test_merge_is_additive_across_workers(self, telemetry):
        telemetry.registry.counter("repro_x_total", "xs").inc(2)
        telemetry.registry.histogram(
            "repro_lat_seconds", "lat", buckets=(1.0,)).observe(0.1)
        snap = obs_delta.snapshot_delta()

        parent = obs.configure_obs(obs.ObsConfig())
        obs_delta.merge_delta(parent, snap, worker="0")
        obs_delta.merge_delta(parent, snap, worker="0")
        obs_delta.merge_delta(parent, snap, worker="1")
        by_worker = {labels["worker"]: metric
                     for name, labels, metric in parent.registry.items()
                     if name == "repro_x_total"}
        assert by_worker["0"].value == 4
        assert by_worker["1"].value == 2
        counts = sum(metric.count
                     for name, _labels, metric
                     in parent.registry.items()
                     if name == "repro_lat_seconds")
        assert counts == 3

    def test_schema_mismatch_is_dropped_whole(self, telemetry):
        telemetry.registry.counter("repro_x_total", "xs").inc()
        snap = obs_delta.snapshot_delta()
        snap["schema"] = obs_delta.WIRE_SCHEMA + 1

        parent = obs.configure_obs(obs.ObsConfig())
        obs_delta.merge_delta(parent, snap, worker="0")
        assert not list(parent.registry.items())
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


def _merged_totals(registry):
    """Counter values and histogram observation counts, summed across
    ``worker`` labels.  Seconds and bucket shapes are timing-dependent
    and deliberately excluded — parity is about *events*."""
    totals = {}
    for name, labels, metric in registry.items():
        key = (name, tuple(sorted((k, v) for k, v in labels.items()
                                  if k != "worker")))
        if metric.kind == "counter":
            totals[key] = totals.get(key, 0) + metric.value
        elif metric.kind == "histogram":
            key = ("count:" + name, key[1])
            totals[key] = totals.get(key, 0) + metric.count
    return totals


class TestWorkerParity:
    def test_pool_metrics_match_serial(self, tmp_path):
        """A jobs=2 run merges worker deltas such that summing every
        series across ``worker`` labels reproduces the serial run's
        totals exactly — the counters pool workers used to drop."""
        specs = [spec("matmul"), spec("sort"), spec("crc")]
        try:
            obs.configure_obs(obs.ObsConfig())
            serial = Engine(EngineConfig(
                jobs=1, cache=True, cache_dir=str(tmp_path / "serial")))
            serial.run_cells(specs)
            serial_totals = _merged_totals(
                obs.get_collector().registry)

            obs.reset_obs()
            obs.configure_obs(obs.ObsConfig())
            pooled = Engine(EngineConfig(
                jobs=2, cache=True, cache_dir=str(tmp_path / "pool")))
            pooled.run_cells(specs)
            pooled_registry = obs.get_collector().registry
            pooled_totals = _merged_totals(pooled_registry)

            assert pooled_totals == serial_totals
            # The merged registry really does carry worker series for
            # the pass counters that used to vanish.
            workers = {labels.get("worker")
                       for name, labels, _metric
                       in pooled_registry.items()
                       if name == "repro_kernel_pass_total"}
            assert workers - {None}, \
                "no worker-labeled kernel pass series merged"
            # ... and worker kernel spans landed in the parent tree.
            assert any(span.name.startswith("kernel:")
                       and "worker" in span.attrs
                       for span in obs.get_collector().tracer.spans)
        finally:
            obs.reset_obs()

    def test_disabled_mode_ships_no_delta(self, tmp_path, no_telemetry):
        """With telemetry off the worker path is exactly the plain
        payload computation: no collector, no ``obs_delta`` key, no
        serialization riding the result pipe."""
        from repro.harness.engine import _pool_cell_worker

        config = EngineConfig(jobs=1, cache=True,
                              cache_dir=str(tmp_path / "off"))
        payload = _pool_cell_worker(spec("crc", scale=0.1), config,
                                    (), None)
        assert "obs_delta" not in payload
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
        assert payload["obs_delta"]["metrics"]
        assert obs.get_collector() is None


# ---------------------------------------------------------------------
# Run history + regression gate
# ---------------------------------------------------------------------


def _record(run_id="r1", wall=1.0, pass_seconds=0.01, items=1000,
            experiments=("F7",), backend="python"):
    run_doc = {
        "run_id": run_id,
        "started_at": "2026-08-08T00:00:00",
        "argv": list(experiments),
        "engine": {"backend": backend,
                   "backend_fingerprint": "kernel-backend:%s" % backend,
                   "jobs": 1},
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
        assert obs_history.fingerprint(_record()) != \
            obs_history.fingerprint(_record(backend="columnar"))

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

    def test_kernel_pass_table_sums_worker_series(self, telemetry):
        registry = telemetry.registry
        for worker in ("0", "1"):
            registry.counter("repro_kernel_pass_total", "calls",
                             kernel="decode", backend="python",
                             worker=worker).inc(2)
            registry.counter("repro_kernel_pass_items_total", "items",
                             kernel="decode", backend="python",
                             worker=worker).inc(500)
            registry.histogram("repro_kernel_pass_seconds", "s",
                               kernel="decode", backend="python",
                               worker=worker).observe(0.25)
        table = obs_history.kernel_pass_table(telemetry)
        assert table["decode"]["calls"] == 4
        assert table["decode"]["items"] == 1000
        assert table["decode"]["seconds"] == pytest.approx(0.5)

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
# Exposition lint
# ---------------------------------------------------------------------


class TestExpositionLint:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "cache hits",
                         stage="compile", worker="0").inc(3)
        registry.gauge("repro_depth", "queue depth").set(2.5)
        histogram = registry.histogram("repro_lat_seconds", "latency",
                                       buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        return registry

    def test_rendered_registry_is_clean(self):
        assert lint_exposition(render_prometheus(self._populated())) \
            == []

    def test_escaped_label_values_pass(self):
        registry = MetricsRegistry()
        registry.counter("repro_odd_total", "odd labels",
                         path='a\\b"c\nd').inc()
        text = render_prometheus(registry)
        assert '\\\\' in text and '\\"' in text and "\\n" in text
        assert lint_exposition(text) == []

    def test_unescaped_label_value_is_flagged(self):
        bad = 'repro_x_total{path="a"b"} 1\n'
        assert any("label" in problem
                   for problem in lint_exposition(bad))

    def test_type_after_samples_is_flagged(self):
        bad = ("repro_x_total 1\n"
               "# TYPE repro_x_total counter\n")
        assert any("after its samples" in problem
                   for problem in lint_exposition(bad))

    def test_histogram_without_inf_is_flagged(self):
        bad = ("# TYPE repro_lat_seconds histogram\n"
               'repro_lat_seconds_bucket{le="1.0"} 2\n'
               "repro_lat_seconds_sum 0.4\n"
               "repro_lat_seconds_count 2\n")
        assert any("+Inf" in problem for problem in lint_exposition(bad))

    def test_inconsistent_count_is_flagged(self):
        bad = ("# TYPE repro_lat_seconds histogram\n"
               'repro_lat_seconds_bucket{le="1.0"} 2\n'
               'repro_lat_seconds_bucket{le="+Inf"} 2\n'
               "repro_lat_seconds_sum 0.4\n"
               "repro_lat_seconds_count 5\n")
        assert any("_count" in problem
                   for problem in lint_exposition(bad))

    def test_noncumulative_buckets_are_flagged(self):
        bad = ("# TYPE repro_lat_seconds histogram\n"
               'repro_lat_seconds_bucket{le="0.1"} 5\n'
               'repro_lat_seconds_bucket{le="+Inf"} 2\n'
               "repro_lat_seconds_sum 0.4\n"
               "repro_lat_seconds_count 2\n")
        assert any("cumulative" in problem
                   for problem in lint_exposition(bad))


# ---------------------------------------------------------------------
# The /metrics endpoint
# ---------------------------------------------------------------------


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


class TestMetricsServer:
    def test_scrape_health_and_404(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "hits",
                         worker="1").inc(7)
        server = MetricsServer(
            lambda: render_prometheus(registry),
            health_provider=lambda: {"run_id": "r-123"})
        try:
            host, port = server.start()
            assert host == "127.0.0.1" and port > 0
            status, ctype, body = _get(server.url("/metrics"))
            assert status == 200
            assert ctype == CONTENT_TYPE
            assert 'repro_hits_total{worker="1"} 7' in body
            assert lint_exposition(body) == []

            status, ctype, body = _get(server.url("/healthz"))
            assert status == 200
            assert json.loads(body) == {"status": "ok",
                                        "run_id": "r-123"}

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url("/nope"))
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_provider_error_is_500_not_crash(self):
        def explode():
            raise RuntimeError("mid-run mutation")

        server = MetricsServer(explode)
        try:
            server.start()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url("/metrics"))
            assert excinfo.value.code == 500
        finally:
            server.stop()

    def test_address_before_start_raises(self):
        server = MetricsServer(lambda: "")
        with pytest.raises(RuntimeError, match="before start"):
            server.url()
        with pytest.raises(RuntimeError, match="requested port 0"):
            server.address

    def test_double_start_raises(self):
        server = MetricsServer(lambda: "")
        try:
            server.start()
            with pytest.raises(RuntimeError, match="already running"):
                server.start()
        finally:
            server.stop()

    def test_restart_rebinds_fresh_ephemeral_port(self):
        """stop() → start() must re-resolve port 0, not advertise (or
        try to rebind) the previous cycle's ephemeral port; between
        cycles the server has no address at all."""
        server = MetricsServer(lambda: "repro_up 1\n")
        try:
            host, first_port = server.start()
            assert first_port > 0
            server.stop()
            with pytest.raises(RuntimeError, match="before start"):
                server.address
            host, second_port = server.start()
            assert second_port > 0
            status, _, body = _get(server.url("/metrics"))
            assert status == 200 and "repro_up 1" in body
        finally:
            server.stop()

    def test_stored_provider_replays_run_artifacts(self, tmp_path):
        runs_root = str(tmp_path / "runs")
        os.makedirs(os.path.join(runs_root, "obs-r1"))
        with open(os.path.join(runs_root, "run-r1.json"),
                  "w") as stream:
            json.dump({"run_id": "r1",
                       "started_at": "2026-08-08T00:00:00",
                       "obs": {"dir": "obs-r1"}}, stream)
        exposition = ("# TYPE repro_hits_total counter\n"
                      "repro_hits_total 4\n")
        with open(os.path.join(runs_root, "obs-r1", "metrics.prom"),
                  "w") as stream:
            stream.write(exposition)
        assert stored_provider(runs_root, "last")() == exposition
        assert stored_provider(runs_root, "nope")() == ""


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
