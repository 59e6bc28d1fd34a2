"""The fault matrix: every experiment's rendered output is
byte-identical with faults injected and without.

One clean pass over all 18 experiments establishes the baseline (and
warms the shared stage cache); each matrix case re-runs the full suite
under one fault plan and compares every ``render()`` string against
the clean output.  Cache-level and artifact-plane faults run serially
(``jobs=1``) so the engine's own :class:`CacheDir` handle and plane
counters see every injection; worker faults run against a real pool
(``jobs=2``) so crashes, hangs, and unpicklable result payloads cross
an actual process boundary.  A plane-off leg re-runs the suite with
``EngineConfig(artifacts=False)`` against the same warm cache, pinning
the tentpole's byte-identity claim across the plane on/off boundary.

The CI fault-injection leg runs this file with ``REPRO_FAULTS`` set;
:func:`test_env_plan_matrix` picks the plan up from the environment
(it skips when the variable is unset, so local runs aren't slowed
twice).
"""

from __future__ import annotations

import os

import pytest

from repro.harness import faults
from repro.harness.engine import EngineConfig, configure, reset_engine
from repro.harness.experiments import ALL_EXPERIMENTS, run_experiment

SCALE = 0.25


def _run_all(cache_dir, jobs=1, cell_timeout=60.0, **extra):
    """All experiments through a freshly configured engine; returns
    the engine and every experiment's rendered output."""
    engine = configure(EngineConfig(jobs=jobs, cache=True,
                                    cache_dir=str(cache_dir),
                                    cell_timeout=cell_timeout,
                                    retries=2, retry_backoff=0.0,
                                    **extra))
    outputs = {identifier: run_experiment(identifier,
                                          scale=SCALE).render()
               for identifier in ALL_EXPERIMENTS}
    return engine, outputs


def _assert_identical(outputs, clean):
    for identifier in ALL_EXPERIMENTS:
        assert outputs[identifier] == clean[identifier], \
            "experiment %s changed under fault injection" % identifier


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """(cache_dir, clean outputs): one fault-free pass that also warms
    the stage cache every matrix case reuses."""
    cache_dir = tmp_path_factory.mktemp("fault-matrix-cache")
    faults.reset_faults()
    _engine, outputs = _run_all(cache_dir)
    yield cache_dir, outputs
    reset_engine()
    faults.reset_faults()


@pytest.mark.parametrize("plan_text,store_errors,quarantined", [
    ("cache.read.ioerror:3", 0, 0),
    ("cache.read.garbage:3", 0, 3),
    # Write faults need store calls, and a hot cache never stores:
    # pair each with read faults that force recompute + re-store.
    ("cache.read.ioerror:3,cache.write.ioerror:3", 3, 0),
    ("cache.read.ioerror:2,cache.write.unpicklable:2", 2, 0),
])
def test_cache_fault_matrix(baseline, plan_text, store_errors,
                            quarantined):
    cache_dir, clean = baseline
    plan = faults.FaultPlan.parse(plan_text)
    expected_fires = sum(plan.remaining.values())
    faults.install_plan(plan)
    engine, outputs = _run_all(cache_dir)
    _assert_identical(outputs, clean)
    robust = engine.robustness()
    assert sum(robust["faults_injected"].values()) == expected_fires
    assert robust["failed_cells"] == []
    assert robust["cache"]["store_errors"] == store_errors
    assert robust["cache"]["quarantined"] == quarantined


@pytest.mark.parametrize("plan_text,store_errors,quarantined", [
    # An unreadable bundle is a plane miss: the pickle tier (or a
    # recompute) serves the cell, and the miss backfills a new bundle.
    ("artifact.read.ioerror:3", 0, 0),
    # Corrupt and truncated bundles additionally quarantine the file.
    ("artifact.read.garbage:3", 0, 3),
    ("artifact.read.truncated:3", 0, 3),
    # Plane write faults need store calls; forced read misses trigger
    # the backfill stores the write faults then poison.
    ("artifact.read.ioerror:2,artifact.write.ioerror:2", 2, 0),
])
def test_artifact_fault_matrix(baseline, plan_text, store_errors,
                               quarantined):
    cache_dir, clean = baseline
    plan = faults.FaultPlan.parse(plan_text)
    expected_fires = sum(plan.remaining.values())
    faults.install_plan(plan)
    engine, outputs = _run_all(cache_dir)
    _assert_identical(outputs, clean)
    robust = engine.robustness()
    assert sum(robust["faults_injected"].values()) == expected_fires
    assert robust["failed_cells"] == []
    plane = robust["artifacts"]
    assert plane["store_errors"] == store_errors
    assert plane["quarantined"] == quarantined
    # The stage cache behind the plane stayed clean throughout.
    assert robust["cache"]["store_errors"] == 0
    assert robust["cache"]["quarantined"] == 0


def test_plane_off_matches(baseline):
    """The same warm cache rendered with the artifact plane disabled:
    byte-identical, pure pickle-tier hits."""
    cache_dir, clean = baseline
    faults.reset_faults()
    engine, outputs = _run_all(cache_dir, artifacts=False)
    _assert_identical(outputs, clean)
    assert engine.plane is None
    assert "artifacts" not in engine.robustness()


@pytest.mark.parametrize("plan_text", [
    "worker.crash:1",
    "worker.hang:1",
    "artifact.unpicklable:2",
])
def test_worker_fault_matrix(baseline, plan_text, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_HANG_S", "15")
    cache_dir, clean = baseline
    faults.install_plan(faults.FaultPlan.parse(plan_text))
    engine, outputs = _run_all(cache_dir, jobs=2, cell_timeout=5.0)
    _assert_identical(outputs, clean)
    robust = engine.robustness()
    assert sum(robust["faults_injected"].values()) >= 1
    assert robust["failed_cells"] == []
    if plan_text != "worker.crash:1":
        # Hangs and poisoned payloads surface as pool faults the
        # supervisor recovers from serially.
        assert robust["pool_faults"] >= 1


@pytest.mark.skipif(not os.environ.get("REPRO_FAULTS"),
                    reason="REPRO_FAULTS not set (CI fault leg only)")
def test_env_plan_matrix(baseline):
    """The CI leg: the plan comes from the environment, exactly as a
    user would inject it."""
    cache_dir, clean = baseline
    faults.install_plan(faults.plan_from_env())
    engine, outputs = _run_all(cache_dir)
    _assert_identical(outputs, clean)
    assert sum(engine.robustness()["faults_injected"].values()) >= 1
