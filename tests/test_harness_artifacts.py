"""The mmap-backed columnar artifact plane (``harness/artifacts.py``):
bundle format integrity, the plane's robustness contract
(quarantine-on-corruption, best-effort stores, orphaned-tmp sweeping),
and — the property the whole tier rests on — byte-identical round
trips of every persisted column against fresh in-memory derivation."""

from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys
import time

import pytest

from repro import kernels
from repro.analysis import analyze_deadness
from repro.analysis.statics import StaticTable
from repro.emulator.trace import Trace
from repro.harness import artifacts
from repro.harness.artifacts import (
    MAGIC,
    ArtifactPlane,
    ColumnBundle,
    CorruptArtifact,
    encode_bundle,
    fused_doc_from_bundle,
    counts_from_bundle,
    i8_bytes,
    is_analysis_bundle,
    is_trace_bundle,
    store_analysis_bundle,
    store_trace_bundle,
    u1_bytes,
    unpack_output,
)
from repro.harness.cachedir import CacheDir
from repro.harness.engine import _fused_to_doc
from repro.workloads import get_workload

KEY = "ab" + "0" * 62  # well-formed plane key (hex-shaped, sharded)
KEY2 = "cd" + "1" * 62


def _sample_columns():
    return [
        ("ints", "i8", i8_bytes([0, 1, -5, 1 << 40])),
        ("flags", "u1", u1_bytes([True, False, True])),
        ("blob", "u1", pickle.dumps(["x", 7], protocol=2)),
    ]


def _parse(blob: bytes) -> ColumnBundle:
    return ColumnBundle.parse("<memory>", blob)


class TestFormat:
    def test_round_trip(self):
        blob = encode_bundle("demo", 3, _sample_columns(),
                             meta={"answer": 42})
        bundle = _parse(blob)
        assert bundle.verify()
        assert bundle.kind == "demo"
        assert bundle.n == 3
        assert bundle.meta == {"answer": 42}
        assert bundle.has("ints") and not bundle.has("missing")
        assert bundle.ints("ints") == [0, 1, -5, 1 << 40]
        assert bundle.bools("flags") == [True, False, True]
        assert pickle.loads(bundle.blob("blob")) == ["x", 7]

    def test_hydrated_values_are_plain_python(self):
        bundle = _parse(encode_bundle("demo", 3, _sample_columns()))
        assert all(type(value) is int for value in bundle.ints("ints"))
        assert all(type(value) is bool
                   for value in bundle.bools("flags"))

    def test_columns_are_64_byte_aligned(self):
        blob = encode_bundle("demo", 3, _sample_columns())
        bundle = _parse(blob)
        for name in ("ints", "flags", "blob"):
            _count, start = bundle._locate(
                name, bundle._columns[name][0])
            assert start % 64 == 0

    def test_bad_magic_raises(self):
        blob = encode_bundle("demo", 1, [])
        with pytest.raises(CorruptArtifact):
            _parse(b"NOPE" + blob[4:])

    def test_truncated_raises(self):
        blob = encode_bundle("demo", 3, _sample_columns())
        for cut in (4, len(MAGIC) + 10, len(blob) - 8):
            with pytest.raises(CorruptArtifact):
                _parse(blob[:cut])

    def test_garbage_toc_raises(self):
        blob = encode_bundle("demo", 1, [])
        start = len(MAGIC) + 65
        corrupt = blob[:start] + b"\xff\xfe{not json" + blob[start:]
        with pytest.raises(CorruptArtifact):
            _parse(corrupt)

    def test_schema_mismatch_raises(self, monkeypatch):
        blob = encode_bundle("demo", 1, [])
        monkeypatch.setattr(artifacts, "ARTIFACT_SCHEMA", "999")
        with pytest.raises(CorruptArtifact):
            _parse(blob)

    def test_checksum_detects_bit_flip(self):
        blob = bytearray(encode_bundle("demo", 3, _sample_columns()))
        blob[-1] ^= 0x40
        bundle = _parse(bytes(blob))  # header still parses
        assert not bundle.verify()

    def test_misaligned_column_length_raises(self):
        with pytest.raises(ValueError):
            encode_bundle("demo", 1, [("bad", "i8", b"\x00" * 7)])


class TestPlane:
    def _plane(self, tmp_path):
        return ArtifactPlane(str(tmp_path / "cache"))

    def test_store_then_attach(self, tmp_path):
        plane = self._plane(tmp_path)
        handle = plane.store(KEY, "demo", 3, _sample_columns(),
                             meta={"k": 1})
        assert handle is not None
        assert handle.key == KEY and handle.n == 3
        assert os.path.exists(handle.path)
        bundle = plane.attach(KEY)
        assert bundle is not None
        assert bundle.ints("ints") == [0, 1, -5, 1 << 40]
        assert bundle.checksum == handle.checksum
        assert plane.counters["stores"] == 1
        assert plane.counters["attach_hits"] == 1
        again = plane.attach_handle(handle)
        assert again is not None and again.n == 3

    def test_attach_missing_is_a_miss(self, tmp_path):
        plane = self._plane(tmp_path)
        assert plane.attach(KEY) is None
        assert plane.counters["attach_misses"] == 1
        assert plane.counters["quarantined"] == 0

    def test_corrupt_file_quarantined(self, tmp_path):
        plane = self._plane(tmp_path)
        handle = plane.store(KEY, "demo", 3, _sample_columns())
        blob = bytearray(pathlib.Path(handle.path).read_bytes())
        blob[-1] ^= 0x40
        with open(handle.path, "wb") as stream:
            stream.write(bytes(blob))
        artifacts._reset_verified()
        assert plane.attach(KEY) is None
        assert plane.counters["quarantined"] == 1
        assert not os.path.exists(handle.path)
        moved = os.path.join(plane.quarantine_root,
                             os.path.basename(handle.path))
        assert os.path.exists(moved)

    def test_checksum_mismatch_vs_expected_is_a_miss(self, tmp_path):
        plane = self._plane(tmp_path)
        handle = plane.store(KEY, "demo", 3, _sample_columns())
        assert plane.attach(KEY, expected_checksum="f" * 64) is None
        # The file itself is intact: not quarantined, still attachable.
        assert plane.counters["quarantined"] == 0
        assert plane.attach(KEY, handle.checksum) is not None

    def test_replaced_file_reverifies(self, tmp_path):
        # The checksum memo keys on (path, size, mtime): rewriting the
        # file with different valid content must not serve stale state.
        plane = self._plane(tmp_path)
        plane.store(KEY, "demo", 3, _sample_columns())
        first = plane.attach(KEY)
        blob = encode_bundle("demo", 1, [("ints", "i8",
                                          i8_bytes([9]))])
        staged = plane.entry_path(KEY) + ".tmp"
        with open(staged, "wb") as stream:
            stream.write(blob)
        os.replace(staged, plane.entry_path(KEY))
        future = time.time() + 5
        os.utime(plane.entry_path(KEY), (future, future))
        second = plane.attach(KEY)
        assert first.ints("ints") == [0, 1, -5, 1 << 40]
        assert second.ints("ints") == [9]

    def test_stats_counts_live_files_only(self, tmp_path):
        plane = self._plane(tmp_path)
        assert plane.stats() == {"entries": 0, "bytes": 0}
        plane.store(KEY, "demo", 3, _sample_columns())
        plane.store(KEY2, "demo", 3, _sample_columns())
        stats = plane.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        # Quarantined bundles drop out of the live stats.
        blob = bytearray(pathlib.Path(plane.entry_path(KEY)).read_bytes())
        blob[-1] ^= 1
        with open(plane.entry_path(KEY), "wb") as stream:
            stream.write(bytes(blob))
        artifacts._reset_verified()
        plane.attach(KEY)
        assert plane.stats()["entries"] == 1


class TestCacheDirIntegration:
    def test_stats_and_gc_cover_plane_files(self, tmp_path):
        cache = CacheDir(str(tmp_path))
        cache.store("compile", "e" * 64, "asm text")
        plane = ArtifactPlane(str(tmp_path))
        plane.store(KEY, "demo", 3, _sample_columns())
        stats = cache.stats()
        assert stats["artifacts"]["entries"] == 1
        assert stats["total"]["entries"] == 2
        # Size-bounded gc evicts oldest-first across both tiers.
        old = time.time() - 1000
        os.utime(plane.entry_path(KEY), (old, old))
        report = cache.gc(max_bytes=64)
        assert report["evicted"] >= 1
        assert not os.path.exists(plane.entry_path(KEY))

    def test_gc_sweeps_stale_plane_tmp_files(self, tmp_path):
        # Regression: a writer killed mid-store leaves *.tmp under the
        # artifacts tree; gc must sweep those exactly like stage tmp.
        cache = CacheDir(str(tmp_path))
        plane = ArtifactPlane(str(tmp_path))
        handle = plane.store(KEY, "demo", 3, _sample_columns())
        stale = os.path.join(os.path.dirname(handle.path),
                             "orphan123.tmp")
        with open(stale, "wb") as stream:
            stream.write(b"partial write")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        assert stale in cache.temp_files()
        report = cache.gc(tmp_max_age_seconds=3600)
        assert report["tmp_swept"] == 1
        assert not os.path.exists(stale)
        assert plane.attach(KEY) is not None  # live bundle untouched

    def test_gc_drops_plane_quarantine(self, tmp_path):
        cache = CacheDir(str(tmp_path))
        plane = ArtifactPlane(str(tmp_path))
        handle = plane.store(KEY, "demo", 3, _sample_columns())
        blob = bytearray(pathlib.Path(handle.path).read_bytes())
        blob[-1] ^= 1
        with open(handle.path, "wb") as stream:
            stream.write(bytes(blob))
        artifacts._reset_verified()
        plane.attach(KEY)
        assert cache.quarantine_stats()["entries"] == 1
        report = cache.gc(drop_quarantine=True)
        assert report["quarantine_dropped"] == 1
        assert cache.quarantine_stats()["entries"] == 0

    def test_clear_removes_plane(self, tmp_path):
        cache = CacheDir(str(tmp_path))
        plane = ArtifactPlane(str(tmp_path))
        plane.store(KEY, "demo", 3, _sample_columns())
        cache.clear()
        assert not os.path.isdir(plane.root)


@pytest.fixture(scope="module")
def traced():
    workload = get_workload("sort")
    machine, trace = workload.run(scale=0.3)
    return trace, machine.output


class TestRoundTrip:
    """The load-bearing property: every column a bundle persists
    hydrates byte-identically (pickle-equal, element types included)
    to deriving it fresh from the trace."""

    @pytest.mark.parametrize("workload_name", ["sort", "matmul",
                                               "rle"])
    def test_trace_bundle_round_trip(self, tmp_path, workload_name):
        machine, trace = get_workload(workload_name).run(scale=0.3)
        statics = StaticTable(trace.program)

        reference_sidx = list(trace.static_indices())
        reference = kernels.fused(kernels.decode(trace, statics))

        plane = ArtifactPlane(str(tmp_path))
        handle = store_trace_bundle(plane, KEY, trace.program,
                                    trace.pcs, trace.taken,
                                    trace.addrs, machine.output)
        assert handle is not None
        bundle = plane.attach(KEY)
        assert bundle is not None and is_trace_bundle(bundle)
        assert unpack_output(bundle) == machine.output

        hydrated = Trace(trace.program)
        hydrated.pcs = bundle.ints("pcs")
        hydrated.taken = bundle.bools("taken")
        hydrated.addrs = bundle.ints("addrs")
        hydrated.artifact_bundle = bundle
        assert hydrated.pcs == trace.pcs
        assert hydrated.taken == trace.taken
        assert hydrated.addrs == trace.addrs
        assert hydrated.static_indices() == reference_sidx

        roundtrip = kernels.fused(kernels.decode(hydrated, statics))
        assert pickle.dumps(roundtrip) == pickle.dumps(reference)

    def test_analysis_bundle_round_trip(self, tmp_path, traced):
        trace, _output = traced
        analysis = analyze_deadness(trace)
        fused_doc = _fused_to_doc(analysis.fused)
        counts = {
            "n_dynamic": analysis.n_dynamic,
            "n_eligible": analysis.n_eligible,
            "n_dead": analysis.n_dead,
            "n_direct": analysis.n_direct,
            "n_transitive": analysis.n_transitive,
            "n_dead_stores": analysis.n_dead_stores,
        }
        dead_blob = bytes(bytearray(analysis.dead))
        direct_blob = bytes(bytearray(analysis.direct))

        plane = ArtifactPlane(str(tmp_path))
        handle = store_analysis_bundle(plane, KEY, len(trace),
                                       dead_blob, direct_blob,
                                       counts, fused_doc)
        assert handle is not None
        bundle = plane.attach(KEY)
        assert bundle is not None
        assert is_analysis_bundle(bundle, len(trace))
        assert counts_from_bundle(bundle) == counts
        assert bundle.bools("dead") == analysis.dead
        assert bundle.bools("direct") == analysis.direct
        rebuilt = fused_doc_from_bundle(bundle)
        assert pickle.dumps(rebuilt) == pickle.dumps(fused_doc)


class TestEnginePlane:
    def test_hot_cells_attach_instead_of_unpickling(self, tmp_path):
        from repro.harness.engine import (CellSpec, Engine,
                                          EngineConfig)
        from repro.lang import CompilerOptions

        spec = CellSpec(workload="sort", scale=0.3,
                        options=CompilerOptions())
        cold = Engine(EngineConfig(cache_dir=str(tmp_path)))
        first = cold.run_cells([spec])[0]
        assert cold.plane is not None
        assert cold.plane.counters["stores"] == 2  # trace + analysis

        hot = Engine(EngineConfig(cache_dir=str(tmp_path)))
        second = hot.run_cells([spec])[0]
        assert hot.plane.counters["attach_misses"] == 0
        assert hot.plane.counters["attach_hits"] >= 2
        assert second.trace.artifact_bundle is not None
        assert second.trace.pcs == first.trace.pcs
        assert pickle.dumps(second.analysis.fused) == \
            pickle.dumps(first.analysis.fused)

    def test_harness_never_imports_numpy(self, tmp_path):
        """The kernels and the plane need only the standard library: a
        fresh interpreter that imports the CLI and runs one cell cold,
        then hot through the plane's bundles, has no ``numpy`` in
        ``sys.modules``."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = src
        script = (
            "import sys\n"
            "import repro.harness.cli\n"
            "from repro.harness.engine import CellSpec, Engine, "
            "EngineConfig\n"
            "from repro.lang import CompilerOptions\n"
            "spec = CellSpec(workload='sort', scale=0.1,\n"
            "                options=CompilerOptions())\n"
            "config = EngineConfig(cache_dir=sys.argv[1])\n"
            "Engine(config).run_cells([spec])\n"
            "hot = Engine(config)\n"
            "cell = hot.run_cells([spec])[0]\n"
            "assert hot.plane.counters['attach_hits'] >= 2\n"
            "assert cell.trace.artifact_bundle is not None\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[0] == 'numpy'))\n")
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_vanished_bundle_falls_back(self, tmp_path):
        # A handle that no longer attaches (plane wiped between the
        # worker and the parent) must recompute, not fail.
        import shutil

        from repro.harness.engine import (CellSpec, Engine,
                                          EngineConfig,
                                          _compute_cell_payload,
                                          _materialize_payload)
        from repro.lang import CompilerOptions

        spec = CellSpec(workload="sort", scale=0.3,
                        options=CompilerOptions())
        engine = Engine(EngineConfig(cache_dir=str(tmp_path)))
        reference = engine.run_cells([spec])[0]
        payload = _compute_cell_payload(spec, engine.config,
                                        engine.cache,
                                        plane=engine.plane)
        assert "trace_artifact" in payload
        shutil.rmtree(engine.plane.root)
        artifacts._reset_verified()
        artifact = _materialize_payload(spec, payload, engine.config,
                                        engine.cache, engine.plane)
        assert artifact.trace.pcs == reference.trace.pcs
        assert pickle.dumps(artifact.analysis.fused) == \
            pickle.dumps(reference.analysis.fused)
