"""The trace-kernel layer: fused-pass equivalence, prediction
streams, pass timings (docs/architecture.md)."""

from __future__ import annotations

import pytest

from repro import kernels
from repro.analysis import analyze_deadness
from repro.analysis.distance import kill_distances
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def traced():
    workload = get_workload("sort")
    _machine, trace = workload.run(scale=0.3)
    return trace, analyze_deadness(trace)


# ---------------------------------------------------------------------
# Kernel equivalence (fused vs granular)
# ---------------------------------------------------------------------

class TestKernels:
    def test_decode_column_matches_accessor(self, traced):
        trace, _analysis = traced
        sidx = kernels.static_indices(trace)
        assert list(sidx) == [trace.static_index(i)
                              for i in range(len(trace))]

    @pytest.mark.parametrize("track_stores", (True, False))
    def test_fused_matches_analysis(self, track_stores, traced):
        trace, _analysis = traced
        analysis = analyze_deadness(trace, track_stores=track_stores)
        decoded = kernels.decode(trace)
        fused = kernels.fused(decoded, track_stores=track_stores)
        columns = fused.deadness
        assert columns.dead == analysis.dead
        assert columns.direct == analysis.direct
        assert columns.n_eligible == analysis.n_eligible
        assert columns.n_dead == analysis.n_dead
        assert columns.n_direct == analysis.n_direct
        assert columns.n_dead_stores == analysis.n_dead_stores

    def test_fused_matches_granular_kernels(self, traced):
        trace, analysis = traced
        decoded = kernels.decode(trace)
        fused = kernels.fused(decoded)
        deadness = kernels.deadness(decoded)
        kills = kernels.kill_distances(decoded, deadness.dead)
        counts = kernels.static_counts(decoded, deadness.dead)
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

    def test_prediction_stream_mirrors_eligibility(self, traced):
        trace, analysis = traced
        decoded = kernels.decode(trace)
        stream = kernels.prediction_stream(decoded, analysis.dead)
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
        kernels.fused(decoded)
        kernels.prediction_stream(decoded, analysis.dead)
        totals = kernels.pass_totals()
        assert totals["fused"]["calls"] == 1
        assert totals["fused"]["items"] == len(trace)
        assert totals["fused"]["seconds"] >= 0.0
        assert "prediction-stream" in totals
        kernels.reset_pass_totals()
        assert kernels.pass_totals() == {}
