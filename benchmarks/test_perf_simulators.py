"""Simulator throughput microbenchmarks (regression guards).

Unlike the figure benchmarks, these time the substrate itself:
instructions per second through the emulator, the deadness analysis,
and the timing model.  They exist so performance regressions in the
hot loops show up in `pytest benchmarks/ --benchmark-only`.

``test_perf_kernels_sweep`` additionally writes ``BENCH_kernels.json``
at the repo root: cold/hot kernel timings per backend (see
``docs/architecture.md`` for the layer this measures).
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


@pytest.fixture(scope="module")
def traced():
    workload = get_workload("pchase")
    _, trace = workload.run(scale=0.5)
    return workload, trace, analyze_deadness(trace)


def test_perf_emulator(benchmark):
    workload = get_workload("pchase")
    program = workload.compile(scale=0.5)

    def run():
        from repro.emulator import run_program

        machine, trace = run_program(program)
        return len(trace)

    dynamic = benchmark.pedantic(run, rounds=3, iterations=1)
    assert dynamic > 10_000


def test_perf_deadness_analysis(benchmark, traced):
    _, trace, _ = traced

    def run():
        return analyze_deadness(trace).n_dead

    dead = benchmark.pedantic(run, rounds=3, iterations=1)
    assert dead > 0


def test_perf_timing_simulator(benchmark, traced):
    _, trace, analysis = traced

    def run():
        return simulate(trace, default_config(), analysis).stats.cycles

    cycles = benchmark.pedantic(run, rounds=3, iterations=1)
    assert cycles > 0


def test_perf_elimination_simulator(benchmark, traced):
    _, trace, analysis = traced

    def run():
        return simulate(trace, default_config(eliminate=True),
                        analysis).stats.eliminated

    eliminated = benchmark.pedantic(run, rounds=3, iterations=1)
    assert eliminated > 0


# ---------------------------------------------------------------------
# Kernel layer: fused pass + shared prediction stream
# ---------------------------------------------------------------------

def _median_of(fn, rounds=3, warmup=1):
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _time_backend(backend, trace, analysis):
    """Cold/hot kernel timings for one backend over one labelled trace:
    one fused backward pass plus the prediction stream every sweep
    point shares."""
    dead = analysis.dead

    def decode():
        return kernels.DecodedTrace(trace, analysis.statics,
                                    backend.static_indices(trace))

    decoded = decode()

    def cold():
        fresh = decode()
        backend.fused(fresh)
        backend.prediction_stream(fresh, dead)

    def hot():
        backend.fused(decoded)
        backend.prediction_stream(decoded, dead)

    return {
        "cold_s": round(_median_of(cold), 6),
        "hot_s": round(_median_of(hot), 6),
    }


def test_perf_kernels_sweep(benchmark, traced):
    _, trace, analysis = traced
    doc = {
        "workload": trace.program.name,
        "dynamic": len(trace),
        "backends": {},
    }
    for name in kernels.available_backends():
        doc["backends"][name] = _time_backend(
            kernels.get_backend(name), trace, analysis)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_kernels.json"), "w") as stream:
        json.dump(doc, stream, indent=2, sort_keys=True)
        stream.write("\n")

    active = kernels.get_backend()
    decoded = kernels.decode(trace)

    def run():
        fused = active.fused(decoded)
        stream = active.prediction_stream(decoded, analysis.dead)
        return fused.deadness.n_dead + stream.n_events

    total = benchmark.pedantic(run, rounds=3, iterations=1)
    assert total > 0
