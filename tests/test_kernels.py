"""The trace-kernel layer: backend registry, fused-pass equivalence,
prediction streams, pass timings (docs/architecture.md)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro import kernels
from repro.analysis import analyze_deadness
from repro.analysis.distance import kill_distances
from repro.workloads import get_workload

needs_numpy = pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="NumPy absent: columnar backend "
    "not registered (optional dependency)")
BACKENDS = ("python", pytest.param("columnar", marks=needs_numpy))


@pytest.fixture(scope="module")
def traced():
    workload = get_workload("sort")
    _machine, trace = workload.run(scale=0.3)
    return trace, analyze_deadness(trace)


# ---------------------------------------------------------------------
# Registry and selection
# ---------------------------------------------------------------------

class TestRegistry:
    def test_stdlib_backends_registered(self):
        assert "python" in kernels.available_backends()

    def test_columnar_registered_iff_numpy(self):
        registered = "columnar" in kernels.available_backends()
        assert registered == kernels.HAVE_NUMPY

    @needs_numpy
    def test_columnar_selectable(self, monkeypatch):
        assert kernels.get_backend("columnar").name == "columnar"
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        # An earlier engine-driven test may have pinned the env's
        # backend process-wide; this test asserts *env* resolution.
        kernels.set_default_backend(None)
        try:
            assert kernels.default_backend_name() == "columnar"
            assert "columnar" in kernels.backend_fingerprint()
        finally:
            kernels.set_default_backend(None)

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            kernels.get_backend("fortran")
        with pytest.raises(KeyError):
            kernels.set_default_backend("fortran")

    def test_default_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        kernels.set_default_backend(None)
        assert kernels.default_backend_name() == "python"
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        assert kernels.default_backend_name() == "columnar"
        # A pinned backend beats the environment.
        kernels.set_default_backend("python")
        try:
            assert kernels.default_backend_name() == "python"
        finally:
            kernels.set_default_backend(None)

    def test_fingerprint_names_the_backend(self):
        assert kernels.backend_fingerprint("python") != \
            kernels.backend_fingerprint("columnar")
        assert kernels.default_backend_name() in \
            kernels.backend_fingerprint()


# ---------------------------------------------------------------------
# Kernel equivalence (fused vs granular, across backends)
# ---------------------------------------------------------------------

class TestKernels:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_decode_column_matches_accessor(self, name, traced):
        trace, _analysis = traced
        backend = kernels.get_backend(name)
        sidx = backend.static_indices(trace)
        assert list(sidx) == [trace.static_index(i)
                              for i in range(len(trace))]

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("track_stores", (True, False))
    def test_fused_matches_analysis(self, name, track_stores, traced):
        trace, _analysis = traced
        analysis = analyze_deadness(trace, track_stores=track_stores)
        decoded = kernels.decode(trace)
        fused = kernels.get_backend(name).fused(
            decoded, track_stores=track_stores)
        columns = fused.deadness
        assert columns.dead == analysis.dead
        assert columns.direct == analysis.direct
        assert columns.n_eligible == analysis.n_eligible
        assert columns.n_dead == analysis.n_dead
        assert columns.n_direct == analysis.n_direct
        assert columns.n_dead_stores == analysis.n_dead_stores

    @pytest.mark.parametrize("name", BACKENDS)
    def test_fused_matches_granular_kernels(self, name, traced):
        trace, analysis = traced
        backend = kernels.get_backend(name)
        decoded = kernels.decode(trace)
        fused = backend.fused(decoded)
        deadness = backend.deadness(decoded)
        kills = backend.kill_distances(decoded, deadness.dead)
        counts = backend.static_counts(decoded, deadness.dead)
        assert fused.deadness.dead == deadness.dead
        assert fused.kills.distances == kills.distances
        assert fused.kills.unkilled == kills.unkilled
        assert fused.kills.by_provenance == kills.by_provenance
        assert fused.counts.totals == counts.totals
        assert fused.counts.deads == counts.deads

    def test_fused_matches_kill_distance_stats(self, traced):
        trace, analysis = traced
        stats = kill_distances(analysis)
        fused = getattr(analysis, "fused", None)
        assert fused is not None
        assert stats.distances == fused.kills.distances
        assert stats.unkilled == fused.kills.unkilled

    @pytest.mark.parametrize("name", BACKENDS)
    def test_prediction_stream_mirrors_eligibility(self, name, traced):
        trace, analysis = traced
        decoded = kernels.decode(trace)
        stream = kernels.get_backend(name).prediction_stream(
            decoded, analysis.dead)
        eligible = analysis.statics.eligible
        is_cond = analysis.statics.is_cond_branch
        expected_eligible = [i for i in range(len(trace))
                             if eligible[decoded.sidx[i]]]
        expected_branches = [i for i in range(len(trace))
                             if not eligible[decoded.sidx[i]]
                             and is_cond[decoded.sidx[i]]]
        assert stream.eligible_index == expected_eligible
        assert stream.branch_index == expected_branches
        assert stream.eligible_pc == [trace.pcs[i]
                                      for i in expected_eligible]
        assert stream.eligible_dead == [analysis.dead[i]
                                        for i in expected_eligible]
        assert stream.branch_taken == [trace.taken[i]
                                       for i in expected_branches]
        assert stream.n_events == \
            len(expected_eligible) + len(expected_branches)

    def test_stream_memoized_on_analysis(self, traced):
        _trace, analysis = traced
        first = kernels.prediction_stream_for(analysis)
        assert kernels.prediction_stream_for(analysis) is first


# ---------------------------------------------------------------------
# Pass timings
# ---------------------------------------------------------------------

class TestPassTimings:
    def test_totals_accumulate_per_pass(self, traced):
        trace, analysis = traced
        kernels.reset_pass_totals()
        decoded = kernels.decode(trace)
        kernels.get_backend("python").fused(decoded)
        kernels.get_backend("python").prediction_stream(
            decoded, analysis.dead)
        totals = kernels.pass_totals()
        assert totals["fused"]["calls"] == 1
        assert totals["fused"]["items"] == len(trace)
        assert totals["fused"]["seconds"] >= 0.0
        assert "prediction-stream" in totals
        kernels.reset_pass_totals()
        assert kernels.pass_totals() == {}


# ---------------------------------------------------------------------
# Optional-dependency fallback
# ---------------------------------------------------------------------

class TestNumpyFallback:
    def test_fallback_without_numpy(self, tmp_path):
        """With NumPy unimportable the registry must come up with only
        the stdlib backends, ``HAVE_NUMPY`` false, and the kernels
        still working — proved in a subprocess whose ``sys.path``
        front is a stub ``numpy`` that refuses to import."""
        (tmp_path / "numpy.py").write_text(
            "raise ImportError('stubbed out for the fallback test')\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join((str(tmp_path), src))
        env.pop("REPRO_BACKEND", None)
        script = (
            "from repro import kernels\n"
            "assert not kernels.HAVE_NUMPY\n"
            "assert 'columnar' not in kernels.available_backends()\n"
            "assert kernels.default_backend_name() == 'python'\n"
            "from repro.workloads import get_workload\n"
            "_, trace = get_workload('sort').run(scale=0.1)\n"
            "decoded = kernels.decode(trace)\n"
            "fused = kernels.get_backend().fused(decoded)\n"
            "assert fused.deadness.n_dead > 0\n"
            "print('fallback-ok')\n")
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True,
                                env=env)
        assert result.returncode == 0, result.stderr
        assert "fallback-ok" in result.stdout
