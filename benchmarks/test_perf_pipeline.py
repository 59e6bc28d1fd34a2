"""Pipeline + kernel hot-path benchmarks (``BENCH_pipeline.json``).

Where ``test_perf_simulators.py`` guards the legacy-vs-fused analysis
structure, this file characterizes the per-pass kernel timings: for
every registered backend it records a cold and a hot per-pass table
(the ``kernel:<pass>`` spans — fused, prediction stream, static-index
decode), plus the median ``simulate`` wall time on the same trace, the
cost the kernel passes sit next to.  Nothing here is gated: end-to-end
budgets live in ``benchmarks/e2e/``.

Run with ``pytest benchmarks/`` (NumPy-dependent parts skip cleanly
when the optional dependency is absent); ``BENCH_pipeline.json`` is
rewritten at the repo root, next to ``BENCH_kernels.json``.  See
``docs/benchmarks.md`` for the trajectory format.
"""

import json
import os
import statistics
import time

import pytest

from repro import kernels
from repro.analysis import analyze_deadness
from repro.pipeline import default_config, simulate
from repro.workloads import get_workload

#: timed reruns per measurement; the median filters scheduler noise in
#: both directions
ROUNDS = 3
#: untimed runs before measuring, so allocator pools, branch
#: predictors, and per-trace caches are warm for round one
WARMUP = 1


@pytest.fixture(scope="module")
def traced():
    workload = get_workload("pchase")
    _, trace = workload.run(scale=0.5)
    return workload, trace, analyze_deadness(trace)


def _median_of(fn, rounds=ROUNDS, warmup=WARMUP):
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _pass_table(backend, trace, analysis, hot):
    """One per-pass ``kernel:<pass>`` timing table: run every pass
    once and harvest :func:`kernels.pass_totals`.  *hot* reuses one
    decoded table (per-trace array caches warm); cold decodes fresh
    so per-backend preparation is included."""
    dead = analysis.dead

    def passes(decoded):
        backend.fused(decoded)
        backend.prediction_stream(decoded, dead)

    if hot:
        decoded = kernels.decode(trace, analysis.statics)
        passes(decoded)  # warm the backend's per-trace caches
        kernels.reset_pass_totals()
        backend.static_indices(trace)
        passes(decoded)
    else:
        kernels.reset_pass_totals()
        backend.static_indices(trace)
        passes(kernels.DecodedTrace(trace, analysis.statics,
                                    backend.static_indices(trace)))
    totals = kernels.pass_totals()
    kernels.reset_pass_totals()
    return {name: {"calls": bucket["calls"],
                   "items": bucket["items"],
                   "seconds": round(bucket["seconds"], 6)}
            for name, bucket in sorted(totals.items())}


def test_perf_pipeline_passes(benchmark, traced):
    _, trace, analysis = traced
    config = default_config()

    doc = {
        "workload": trace.program.name,
        "dynamic": len(trace),
        "backends": {},
    }
    for name in kernels.available_backends():
        backend = kernels.get_backend(name)
        doc["backends"][name] = {
            "cold_passes": _pass_table(backend, trace, analysis,
                                       hot=False),
            "hot_passes": _pass_table(backend, trace, analysis,
                                      hot=True),
        }
    doc["simulate_s"] = round(_median_of(
        lambda: simulate(trace, config, analysis)), 6)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_pipeline.json"), "w") as stream:
        json.dump(doc, stream, indent=2, sort_keys=True)
        stream.write("\n")

    def run():
        return simulate(trace, config, analysis).stats.cycles

    cycles = benchmark.pedantic(run, rounds=3, iterations=1)
    assert cycles > 0
