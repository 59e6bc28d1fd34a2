"""Simulator throughput microbenchmarks (regression guards).

Unlike the figure benchmarks, these time the substrate itself:
instructions per second through the emulator, the deadness analysis,
and the timing model.  They exist so performance regressions in the
hot loops show up in `pytest benchmarks/ --benchmark-only`.
"""

import pytest

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
