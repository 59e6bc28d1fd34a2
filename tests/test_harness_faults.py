"""The robustness contract: fault injection, cache integrity and
quarantine, store/gc maintenance, engine supervision, and the
``obs report`` robustness section (docs/harness.md)."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time

import pytest

from repro.harness import faults
from repro.harness.cachedir import (
    MISS,
    CacheDir,
    CorruptEntry,
    ENTRY_MAGIC,
    decode_entry,
    encode_entry,
    stable_hash,
)
from repro.harness.engine import (
    CellSpec,
    Engine,
    EngineConfig,
    config_from_env,
)
from repro.lang import CompilerOptions

SCALE = 0.3


def make_engine(tmp_path, name="cache", **overrides):
    overrides.setdefault("retry_backoff", 0.0)
    return Engine(EngineConfig(cache=True,
                               cache_dir=str(tmp_path / name),
                               **overrides))


def spec(workload="matmul", scale=SCALE, **options):
    return CellSpec(workload=workload, scale=scale,
                    options=CompilerOptions(**options))


def plan(text):
    return faults.install_plan(faults.FaultPlan.parse(text))


# ---------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_defaults_and_unlimited(self):
        parsed = faults.FaultPlan.parse(
            "worker.crash, cache.read.garbage:3, worker.hang:*")
        assert parsed.remaining == {"worker.crash": 1,
                                    "cache.read.garbage": 3,
                                    "worker.hang": faults.UNLIMITED}

    def test_unknown_point_raises(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            faults.FaultPlan.parse("cache.read.nope")

    def test_malformed_count_raises(self):
        with pytest.raises(ValueError, match="malformed fault count"):
            faults.FaultPlan.parse("worker.crash:often")
        with pytest.raises(ValueError, match="negative"):
            faults.FaultPlan.parse("worker.crash:-2")

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults.plan_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "  ")
        assert faults.plan_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "worker.crash:2")
        assert faults.plan_from_env().remaining == {"worker.crash": 2}

    def test_should_fire_consumes_budget(self):
        plan("cache.read.ioerror:2")
        assert faults.active()
        assert faults.should_fire("cache.read.ioerror")
        assert faults.should_fire("cache.read.ioerror")
        assert not faults.should_fire("cache.read.ioerror")
        assert faults.fired_counts() == {"cache.read.ioerror": 2}

    def test_should_fire_rejects_unregistered_point(self):
        with pytest.raises(ValueError, match="unregistered"):
            faults.should_fire("cache.read.nope")

    def test_no_plan_never_fires(self):
        assert not faults.active()
        assert not faults.should_fire("worker.crash")
        assert faults.fired_counts() == {}

    def test_draw_cell_faults_spends_parent_budget(self):
        plan("worker.crash:1,worker.hang:1,artifact.unpicklable:1")
        # Serial draws never include pool-only points.
        assert faults.draw_cell_faults(pool=False) == ("worker.crash",)
        drawn = faults.draw_cell_faults(pool=True)
        assert "worker.crash" not in drawn  # budget already spent
        assert set(drawn) == {"worker.hang", "artifact.unpicklable"}
        assert faults.draw_cell_faults(pool=True) == ()


# ---------------------------------------------------------------------
# Entry format and quarantine
# ---------------------------------------------------------------------


class TestEntryIntegrity:
    def test_encode_decode_roundtrip(self):
        blob = encode_entry({"answer": 42})
        assert blob.startswith(ENTRY_MAGIC)
        assert decode_entry(blob) == {"answer": 42}

    def test_decode_rejects_corruption(self):
        blob = encode_entry([1, 2, 3])
        with pytest.raises(CorruptEntry, match="bad magic"):
            decode_entry(b"\x00" + blob[1:])
        with pytest.raises(CorruptEntry, match="truncated"):
            decode_entry(blob[:len(ENTRY_MAGIC) + 10])
        flipped = bytearray(blob)
        flipped[-1] ^= 0xFF
        with pytest.raises(CorruptEntry, match="checksum"):
            decode_entry(bytes(flipped))

    def test_legacy_unchecksummed_entry_is_corrupt(self):
        with pytest.raises(CorruptEntry, match="bad magic"):
            decode_entry(pickle.dumps({"old": "format"}))

    def _corrupt_roundtrip(self, tmp_path, mangle):
        cache = CacheDir(str(tmp_path / "c"))
        key = stable_hash("entry")
        cache.store("compile", key, "artifact text")
        path = cache.entry_path("compile", key)
        mangle(path)
        assert cache.load("compile", key) is MISS
        assert cache.counters["quarantined"] == 1
        # The corrupt bytes moved aside, inspectable but never served.
        assert not os.path.exists(path)
        assert cache.quarantine_stats()["entries"] == 1
        # The slot is reusable: a re-store round-trips again.
        cache.store("compile", key, "artifact text")
        assert cache.load("compile", key) == "artifact text"

    def test_truncated_entry_quarantined(self, tmp_path):
        def mangle(path):
            blob = open(path, "rb").read()
            with open(path, "wb") as stream:
                stream.write(blob[: len(blob) // 2])

        self._corrupt_roundtrip(tmp_path, mangle)

    def test_garbage_entry_quarantined(self, tmp_path):
        def mangle(path):
            with open(path, "wb") as stream:
                stream.write(b"not an entry at all")

        self._corrupt_roundtrip(tmp_path, mangle)

    def test_bitflip_entry_quarantined(self, tmp_path):
        def mangle(path):
            blob = bytearray(open(path, "rb").read())
            blob[-3] ^= 0x01
            with open(path, "wb") as stream:
                stream.write(bytes(blob))

        self._corrupt_roundtrip(tmp_path, mangle)

    def test_legacy_entry_on_disk_quarantined(self, tmp_path):
        def mangle(path):
            with open(path, "wb") as stream:
                stream.write(pickle.dumps("pre-schema artifact"))

        self._corrupt_roundtrip(tmp_path, mangle)

    def test_quarantine_excluded_from_stats(self, tmp_path):
        cache = CacheDir(str(tmp_path / "c"))
        cache.store("compile", stable_hash("keep"), "live")
        bad_key = stable_hash("bad")
        cache.store("compile", bad_key, "doomed")
        with open(cache.entry_path("compile", bad_key), "wb") as stream:
            stream.write(b"garbage")
        assert cache.load("compile", bad_key) is MISS
        stats = cache.stats()
        assert stats["total"]["entries"] == 1  # quarantine not counted

    def test_wrong_type_payload_recomputes(self, tmp_path):
        """A valid entry holding the wrong type is the caller's
        problem: the engine's isinstance guard treats it as a miss and
        recomputes."""
        engine = make_engine(tmp_path)
        first = engine.run_cells([spec()])[0]
        engine.cache.store("compile", first.compile_key, 12345)
        fresh = make_engine(tmp_path)
        second = fresh.run_cells([spec()])[0]
        assert fresh.stats.misses("compile") == 1
        assert second.output == first.output


# ---------------------------------------------------------------------
# Store robustness (satellite: catch Exception, not just OSError)
# ---------------------------------------------------------------------


class TestStoreRobustness:
    def test_unpicklable_artifact_does_not_crash(self, tmp_path):
        cache = CacheDir(str(tmp_path / "c"))
        key = stable_hash("unpicklable")
        cache.store("compile", key, lambda: None)  # must not raise
        assert cache.counters["store_errors"] == 1
        assert cache.load("compile", key) is MISS
        assert cache.temp_files() == []  # no leaked temp file

    def test_injected_unpicklable_fault(self, tmp_path):
        plan("cache.write.unpicklable:1")
        cache = CacheDir(str(tmp_path / "c"))
        key = stable_hash("victim")
        cache.store("compile", key, "fine artifact")
        assert cache.counters["store_errors"] == 1
        assert cache.load("compile", key) is MISS
        cache.store("compile", key, "fine artifact")  # budget spent
        assert cache.load("compile", key) == "fine artifact"

    def test_injected_write_ioerror(self, tmp_path):
        plan("cache.write.ioerror:1")
        cache = CacheDir(str(tmp_path / "c"))
        key = stable_hash("victim")
        cache.store("compile", key, "artifact")
        assert cache.counters["store_errors"] == 1
        assert cache.temp_files() == []

    def test_injected_read_ioerror_is_plain_miss(self, tmp_path):
        plan("cache.read.ioerror:1")
        cache = CacheDir(str(tmp_path / "c"))
        key = stable_hash("victim")
        cache.store("compile", key, "artifact")
        assert cache.load("compile", key) is MISS
        assert cache.counters["quarantined"] == 0  # file is fine
        assert cache.load("compile", key) == "artifact"

    def test_injected_read_garbage_quarantines(self, tmp_path):
        plan("cache.read.garbage:1")
        cache = CacheDir(str(tmp_path / "c"))
        key = stable_hash("victim")
        cache.store("compile", key, "artifact")
        assert cache.load("compile", key) is MISS
        assert cache.counters["quarantined"] == 1
        assert faults.fired_counts() == {"cache.read.garbage": 1}


# ---------------------------------------------------------------------
# Maintenance: temp sweep, gc, eviction
# ---------------------------------------------------------------------


def _plant_tmp(cache, name, age_seconds):
    directory = os.path.join(cache.stages_root, "compile", "ab")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "wb") as stream:
        stream.write(b"half-written")
    old = time.time() - age_seconds
    os.utime(path, (old, old))
    return path


class TestMaintenance:
    def test_sweep_removes_only_stale_tmp(self, tmp_path):
        cache = CacheDir(str(tmp_path / "c"))
        stale = _plant_tmp(cache, "dead.tmp", age_seconds=7200)
        fresh = _plant_tmp(cache, "live.tmp", age_seconds=0)
        assert len(cache.temp_files()) == 2
        assert cache.sweep_temp(max_age_seconds=3600) == 1
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)  # a concurrent writer's file
        assert cache.counters["tmp_swept"] == 1

    def test_gc_report(self, tmp_path):
        cache = CacheDir(str(tmp_path / "c"))
        cache.store("compile", stable_hash("keep"), "live")
        _plant_tmp(cache, "dead.tmp", age_seconds=7200)
        bad_key = stable_hash("bad")
        cache.store("compile", bad_key, "doomed")
        with open(cache.entry_path("compile", bad_key), "wb") as stream:
            stream.write(b"garbage")
        assert cache.load("compile", bad_key) is MISS  # quarantines
        report = cache.gc()
        assert report["tmp_swept"] == 1
        assert report["quarantine_dropped"] == 1
        assert report["evicted"] == 0
        assert cache.quarantine_stats()["entries"] == 0
        assert cache.load("compile", stable_hash("keep")) == "live"

    def test_gc_eviction_is_oldest_first(self, tmp_path):
        cache = CacheDir(str(tmp_path / "c"))
        keys = [stable_hash("entry", str(index)) for index in range(4)]
        for index, key in enumerate(keys):
            cache.store("compile", key, "payload %d" % index)
            old = time.time() - (1000 - index)  # index 0 is oldest
            path = cache.entry_path("compile", key)
            os.utime(path, (old, old))
        entry_size = os.path.getsize(
            cache.entry_path("compile", keys[0]))
        report = cache.gc(max_bytes=2 * entry_size + 1)
        assert report["evicted"] == 2
        assert cache.load("compile", keys[0]) is MISS
        assert cache.load("compile", keys[1]) is MISS
        assert cache.load("compile", keys[2]) == "payload 2"
        assert cache.load("compile", keys[3]) == "payload 3"

    def test_cli_stats_and_gc(self, tmp_path, capsys):
        from repro.harness.cli import main

        cache_dir = str(tmp_path / "clicache")
        cache = CacheDir(cache_dir)
        cache.store("compile", stable_hash("keep"), "live")
        _plant_tmp(cache, "dead.tmp", age_seconds=7200)
        bad_key = stable_hash("bad")
        cache.store("compile", bad_key, "doomed")
        with open(cache.entry_path("compile", bad_key), "wb") as stream:
            stream.write(b"garbage")
        assert cache.load("compile", bad_key) is MISS

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "orphaned temp files: 1" in out
        assert "quarantined: 1 entries" in out

        assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "swept 1 temp file" in out
        assert "dropped 1 quarantined" in out

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "orphaned temp files: 0" in out
        assert "quarantined: 0 entries" in out


# ---------------------------------------------------------------------
# Engine configuration from the environment (satellite)
# ---------------------------------------------------------------------


class TestConfigFromEnv:
    def test_retries_and_backoff_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "3")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
        monkeypatch.setenv("REPRO_PARTIAL", "1")
        config = config_from_env()
        assert config.retries == 3
        assert config.retry_backoff == 0.5
        assert config.partial is True

    def test_malformed_jobs_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS.*'many'"):
            config_from_env()

    def test_malformed_timeout_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
        with pytest.raises(ValueError,
                           match="REPRO_CELL_TIMEOUT.*'soon'"):
            config_from_env()

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_non_positive_timeout_names_the_variable(self, monkeypatch,
                                                     value):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", value)
        with pytest.raises(ValueError,
                           match="REPRO_CELL_TIMEOUT must be a positive "
                                 "number, got '%s'" % value):
            config_from_env()

    def test_malformed_retries_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "1.5")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            config_from_env()


# ---------------------------------------------------------------------
# Engine supervision
# ---------------------------------------------------------------------


class TestSupervision:
    def test_crash_is_retried_serially(self, tmp_path):
        plan("worker.crash:1")
        engine = make_engine(tmp_path, retries=1)
        artifact = engine.run_cells([spec()])[0]
        assert artifact.output  # computed despite the crash
        assert engine.stats.retries == 1
        assert faults.fired_counts() == {"worker.crash": 1}

    def test_persistent_crash_raises_without_partial(self, tmp_path):
        plan("worker.crash:*")
        engine = make_engine(tmp_path, retries=1)
        with pytest.raises(faults.WorkerCrash):
            engine.run_cells([spec()])

    def test_partial_mode_records_failed_cells(self, tmp_path):
        plan("worker.crash:*")
        engine = make_engine(tmp_path, retries=1, partial=True)
        artifacts = engine.run_cells([spec(), spec(workload="sort")])
        assert artifacts == []
        assert len(engine.stats.failed_cells) == 2
        record = engine.stats.failed_cells[0]
        assert record["cell"].startswith("matmul@")
        assert "WorkerCrash" in record["error"]

    def test_pool_fault_degrades_to_serial(self, tmp_path):
        plan("worker.crash:1")
        engine = make_engine(tmp_path, jobs=2, retries=1,
                             pool_fault_limit=1)
        specs = [spec(), spec(workload="sort"), spec(workload="rle")]
        artifacts = engine.run_cells(specs)
        assert [a.spec.workload for a in artifacts] == \
            ["matmul", "sort", "rle"]
        assert engine.stats.pool_faults == 1
        assert engine._pool_degraded
        # Later calls stay serial: same results, no new pool faults.
        again = engine.run_cells(specs)
        assert engine.stats.pool_faults == 1
        assert [a.trace_key for a in again] == \
            [a.trace_key for a in artifacts]

    def test_robustness_document_shape(self, tmp_path):
        make_engine(tmp_path).run_cells([spec()])  # prime the cache
        plan("worker.crash:1,cache.read.garbage:1")
        engine = make_engine(tmp_path, retries=1)
        engine.run_cells([spec()])
        document = engine.robustness()
        assert document["retries"] == 1
        assert document["pool_faults"] == 0
        assert document["degraded_to_serial"] is False
        assert document["failed_cells"] == []
        assert document["faults_injected"]["worker.crash"] == 1
        assert document["cache"]["quarantined"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_quarantines_reach_robustness(self, tmp_path, jobs):
        """Pool tasks ship their cache counters home: with the plane
        off, three corrupted trace entries count three quarantines at
        ``--jobs 2`` as at ``--jobs 1``."""
        specs = [spec(), spec(workload="sort"), spec(workload="rle")]
        make_engine(tmp_path, artifacts=False).run_cells(specs)
        traces = str(tmp_path / "cache" / "stages" / "trace")
        entries = [os.path.join(directory, name)
                   for directory, _dirs, names in os.walk(traces)
                   for name in names]
        assert len(entries) == 3
        for path in entries:
            with open(path, "wb") as stream:
                stream.write(b"garbage")
        engine = make_engine(tmp_path, jobs=jobs, artifacts=False)
        engine.run_cells(specs)
        assert engine.robustness()["cache"]["quarantined"] == 3

    def test_worker_fault_counts_reach_robustness(self, tmp_path):
        """Faults fired inside pool tasks are tallied with the
        parent's: every injected garbage read quarantines one entry."""
        specs = [spec(), spec(workload="sort"), spec(workload="rle")]
        make_engine(tmp_path, artifacts=False).run_cells(specs)
        plan("cache.read.garbage:1")
        engine = make_engine(tmp_path, jobs=2, artifacts=False)
        engine.run_cells(specs)
        document = engine.robustness()
        assert document["faults_injected"]["cache.read.garbage"] >= 1
        assert document["faults_injected"]["cache.read.garbage"] == \
            document["cache"]["quarantined"]


# ---------------------------------------------------------------------
# Concurrent access
# ---------------------------------------------------------------------


def _stress_child(root, worker, rounds):
    cache = CacheDir(root)
    for round_index in range(rounds):
        for slot in range(4):
            key = stable_hash("stress", str(slot))
            value = {"slot": slot, "blob": "x" * 2048}
            cache.store("compile", key, value)
            loaded = cache.load("compile", key)
            # Atomic replace: either a full valid entry or (after a
            # quarantine race) a miss — never a torn read.
            assert loaded is MISS or loaded == value, \
                "worker %d round %d slot %d read a torn entry" % (
                    worker, round_index, slot)


class TestConcurrentAccess:
    def test_multiprocess_store_load_stress(self, tmp_path):
        root = str(tmp_path / "shared")
        context = multiprocessing.get_context("fork")
        workers = [context.Process(target=_stress_child,
                                   args=(root, index, 25))
                   for index in range(4)]
        for process in workers:
            process.start()
        for process in workers:
            process.join(60)
        assert all(process.exitcode == 0 for process in workers)
        cache = CacheDir(root)
        assert cache.temp_files() == []  # atomic writes leak nothing
        for slot in range(4):
            loaded = cache.load("compile", stable_hash("stress",
                                                       str(slot)))
            assert loaded == {"slot": slot, "blob": "x" * 2048}
        assert cache.counters["quarantined"] == 0


# ---------------------------------------------------------------------
# End to end: CLI run under faults + obs report robustness section
# ---------------------------------------------------------------------


class TestReportIntegration:
    def test_faulted_cli_run_reports_robustness(self, tmp_path,
                                                capsys):
        from repro.harness import runs
        from repro.harness.cli import main
        from repro.harness.engine import reset_engine

        cache_dir = str(tmp_path / "clicache")
        base_args = ["F1", "--scale", str(SCALE),
                     "--cache-dir", cache_dir]
        try:
            # Drop any memoized suite runs another test left behind:
            # the clean pass must really populate this cache dir, so
            # the faulted pass reads (and corrupts) real entries.
            runs.clear_cache()
            assert main(base_args) == 0
            clean = capsys.readouterr().out

            runs.clear_cache()
            plan("cache.read.garbage:2,worker.crash:1")
            assert main(base_args) == 0
            faulted = capsys.readouterr().out

            # Same table despite the injected corruption and crash.
            assert _tables(faulted) == _tables(clean)

            assert main(["obs", "report", "last",
                         "--cache-dir", cache_dir]) == 0
            report = capsys.readouterr().out
            assert "-- robustness --" in report
            assert "quarantined 2" in report
            assert "retries 1" in report
            assert "worker.crash=1" in report
            assert "cache.read.garbage=2" in report
        finally:
            runs.clear_cache()
            reset_engine()

    def test_cli_partial_survives_total_failure(self, tmp_path,
                                                capsys):
        """Even an experiment whose every cell fails is reported and
        skipped under --partial, not a traceback from its aggregation
        choking on an empty suite."""
        from repro.harness import runs
        from repro.harness.cli import main
        from repro.harness.engine import reset_engine

        cache_dir = str(tmp_path / "clicache")
        try:
            runs.clear_cache()
            plan("worker.crash:*")
            code = main(["F1", "--scale", str(SCALE), "--partial",
                         "--cache-dir", cache_dir])
            assert code == 1  # incomplete, but no traceback
            captured = capsys.readouterr()
            assert "partial: experiment F1 failed" in captured.err

            assert main(["obs", "report", "last",
                         "--cache-dir", cache_dir]) == 0
            report = capsys.readouterr().out
            assert "failed experiments (1" in report
            assert "failed cells" in report
        finally:
            runs.clear_cache()
            reset_engine()

    def test_report_on_pre_contract_run(self, tmp_path):
        from repro.obs.report import render_robustness

        text = render_robustness({"run_id": "old"})
        assert "no robustness data" in text


def _tables(output):
    """The experiment tables only (drop run-metadata/timing chatter)."""
    return [line for line in output.splitlines()
            if not line.startswith(("recorded run metadata",
                                    "[", "partial:"))
            and "finished in" not in line]
