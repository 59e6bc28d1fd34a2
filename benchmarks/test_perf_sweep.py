"""Sweep-throughput benchmarks for the artifact plane
(``BENCH_sweep.json``).

This file measures what the artifact plane was built for: the **hot
multi-process sweep** — many cells re-materialized over a warm cache,
fanned across worker processes.  For plane on and plane off it
records, over the same six-cell suite:

* the cold wall time (fresh cache, serial) — what a first run pays,
  including the plane's bundle writes;
* hot wall times at ``jobs`` = 1, 2 and 4 (median of ``ROUNDS`` with a
  warm-up pass, fresh :class:`Engine` per sample so in-memory memos
  never stand in for the tier under test);
* the engine's per-stage hit/miss/seconds table for one hot run, so a
  regression shows *which* stage slowed.

The acceptance gate asserts the headline claim: with workers attaching
mmap-backed column bundles instead of unpickling per-worker copies,
the hot ``jobs=2`` sweep is at least 2x the plane-off throughput.
Byte-identity between the two modes is asserted here on
the benchmarked cells and, exhaustively, by ``tests/test_fault_matrix``.

``BENCH_sweep.json`` is rewritten at the repo root; see
``docs/benchmarks.md`` for the trajectory format.
"""

import json
import os
import pickle
import shutil
import statistics
import tempfile
import time

from repro.harness.engine import CellSpec, Engine, EngineConfig
from repro.lang import CompilerOptions

#: timed reruns per hot configuration; the median filters scheduler
#: noise in both directions (matters for a ratio gate)
ROUNDS = 5
#: untimed passes before measuring (page cache, checksum memo, program
#: memo all warm — the steady state a long sweep actually runs in)
WARMUP = 1
JOBS = (1, 2, 4)

#: paper-scale cells: big enough that per-cell column movement (what
#: the plane eliminates) dominates the pool's fixed fork overhead
SPECS = [CellSpec(workload=name, scale=scale,
                  options=CompilerOptions())
         for scale in (1.0, 0.75)
         for name in ("pchase", "sort", "matmul")]


def _engine(cache_dir, jobs, plane):
    return Engine(EngineConfig(jobs=jobs, cache_dir=cache_dir,
                               artifacts=plane))


def _run_once(cache_dir, jobs, plane):
    """One full ``run_cells`` on a fresh engine; (seconds, engine)."""
    engine = _engine(cache_dir, jobs, plane)
    started = time.perf_counter()
    engine.run_cells(SPECS)
    return time.perf_counter() - started, engine


def _median_run(cache_dir, jobs, plane,
                rounds=ROUNDS, warmup=WARMUP):
    for _ in range(warmup):
        _run_once(cache_dir, jobs, plane)
    samples = []
    for _ in range(rounds):
        seconds, _engine_ = _run_once(cache_dir, jobs, plane)
        samples.append(seconds)
    return statistics.median(samples)


def _stage_table(engine):
    return {stage: {"hits": int(bucket["hits"]),
                    "misses": int(bucket["misses"]),
                    "seconds": round(bucket["seconds"], 6)}
            for stage, bucket in sorted(engine.stats.counts.items())}


def _signature(artifacts):
    return pickle.dumps(
        [(a.trace.pcs, a.trace.taken, a.trace.addrs,
          a.analysis.dead, a.analysis.direct, a.analysis.fused,
          a.output) for a in artifacts])


def test_perf_sweep(benchmark):
    doc = {
        "cells": [spec.describe() for spec in SPECS],
        "jobs": list(JOBS),
        "rounds": ROUNDS,
        "warmup": WARMUP,
        "modes": {},
    }
    roots = {}
    signatures = {}
    try:
        for plane in (True, False):
            label = "plane_on" if plane else "plane_off"
            root = tempfile.mkdtemp(prefix="bench-sweep-")
            roots[label] = root
            cold_s, cold_engine = _run_once(root, 1, plane)
            signatures[label] = _signature(
                _engine(root, 1, plane).run_cells(SPECS))
            mode = {
                "cold_s": round(cold_s, 6),
                "cold_stages": _stage_table(cold_engine),
                "hot": {},
            }
            for jobs in JOBS:
                mode["hot"]["jobs%d" % jobs] = round(
                    _median_run(root, jobs, plane), 6)
            _seconds, hot_engine = _run_once(root, 2, plane)
            mode["hot_stages_jobs2"] = _stage_table(hot_engine)
            if plane and hot_engine.plane is not None:
                mode["plane_counters"] = dict(hot_engine.plane.counters)
                mode["plane_stats"] = hot_engine.plane.stats()
            doc["modes"][label] = mode
    finally:
        for root in roots.values():
            shutil.rmtree(root, ignore_errors=True)

    assert signatures["plane_on"] == signatures["plane_off"], \
        "plane on/off sweeps must be byte-identical"

    hot_on = doc["modes"]["plane_on"]["hot"]["jobs2"]
    hot_off = doc["modes"]["plane_off"]["hot"]["jobs2"]
    doc["hot_jobs2_speedup_plane_on_vs_off"] = round(
        hot_off / hot_on, 3)

    root_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))
    with open(os.path.join(root_dir, "BENCH_sweep.json"), "w") as out:
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")

    # Keep pytest-benchmark's table honest: time one hot plane-on
    # sweep under its timer too (the JSON above is the trajectory).
    tmp = tempfile.mkdtemp(prefix="bench-sweep-timer-")
    try:
        _run_once(tmp, 2, True)
        count = benchmark.pedantic(
            lambda: len(_engine(tmp, 2, True).run_cells(SPECS)),
            rounds=1, iterations=1)
        assert count == len(SPECS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    assert hot_off / hot_on >= 2.0, \
        "hot jobs=2 sweep under 2x with the artifact plane: " \
        "on=%.4fs off=%.4fs" % (hot_on, hot_off)
