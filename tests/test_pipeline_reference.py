"""The trace-indexed core equals the register-renaming loop it replaced.

:class:`tests.pipeline_reference.ReferenceSimulator` keeps the old
loop, which renamed through physical-register numbers.  Both loops run
the fuzzed machine shapes of ``test_pipeline_fuzz`` on small real
workloads and the scripted scenarios of ``test_pipeline_scenarios``;
every ``PipelineStats`` field, the L1/L2 miss counts and, with
telemetry on, the timeline samples must be equal.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import analyze_deadness
from repro.emulator import run_program
from repro.isa import assemble
from repro.obs import ObsConfig, configure_obs, reset_obs
from repro.pipeline import contended_config, default_config
from repro.pipeline.core import Simulator
from repro.workloads import get_workload
from tests.pipeline_reference import ReferenceSimulator
from tests.test_pipeline_fuzz import configs
from tests.test_pipeline_scenarios import (
    CHAIN,
    DEAD_THEN_KILLED,
    LIVE_READER,
    NEVER_KILLED,
    ScriptedElimination,
)

#: (workload, scale): a sort, a call-heavy and a pointer-chasing trace
WORKLOADS = (("qsort", 0.25), ("board", 0.2), ("pchase", 0.2))


@pytest.fixture(scope="module")
def runs():
    cells = {}
    for name, scale in WORKLOADS:
        _, trace = get_workload(name).run(scale=scale)
        cells[name] = (trace, analyze_deadness(trace))
    return cells


def _outcome(simulator):
    result = simulator.run()
    return (result.stats.to_dict(), result.l1d_misses, result.l2_misses,
            result.timeline)


def assert_same(trace, config, analysis, script=None):
    """Run both loops (each with its own copy of *script*, a scripted
    elimination's ``(targets, analysis)``) and compare everything."""
    outcomes = []
    for loop in (ReferenceSimulator, Simulator):
        simulator = loop(trace, config, analysis)
        if script is not None:
            simulator.elimination = ScriptedElimination(*script)
        outcomes.append(_outcome(simulator))
    assert outcomes[0] == outcomes[1]
    return outcomes[1]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([name for name, _ in WORKLOADS]), configs)
def test_fuzzed_machines_match_the_reference(runs, name, overrides):
    trace, analysis = runs[name]
    assert_same(trace, default_config(**overrides), analysis)


@pytest.mark.parametrize("name", [name for name, _ in WORKLOADS])
def test_presets_match_the_reference(runs, name):
    trace, analysis = runs[name]
    for config in (default_config(), contended_config(eliminate=True),
                   contended_config(eliminate=True, phys_regs=40,
                                    recovery_mode="flush")):
        assert_same(trace, config, analysis)


def test_timeline_samples_match_the_reference(runs):
    trace, analysis = runs["board"]
    configure_obs(ObsConfig(sample_interval=64))
    try:
        _, _, _, timeline = assert_same(
            trace, contended_config(eliminate=True), analysis)
    finally:
        reset_obs()
    assert timeline["columns"]["cycle"]


LOOP = """
    li   t2, 30
loop:
    li   t1, 5
    li   t1, 6
    addi t2, t2, -1
    bnez t2, loop
    move a0, t1
    li   v0, 1
    syscall
    halt
"""

STORES = """
    li   t0, 5
    sw   t0, 0(gp)
    li   t1, 6
    sw   t1, 0(gp)
    lw   a0, 0(gp)
    li   v0, 1
    syscall
    halt
"""

#: A flush squashes the overwriter that verified an older eliminated
#: producer: the producer must wait for a new verifier again.
SQUASHED_VERIFIER = """
    li   t0, 1          # 0: eliminated, verified by 2
    li   t1, 2          # 1: eliminated, read by 3
    li   t0, 3          # 2: verifies 0, squashed by the flush to 1
    move a0, t1         # 3: live reader of 1
    li   v0, 1          # 4
    syscall             # 5
    halt                # 6
"""

#: (source, eliminated trace indices, config overrides): every
#: scripted scenario, plus each in flush mode and starved of registers
SCENARIOS = [
    pytest.param(DEAD_THEN_KILLED, {0}, {}, id="verified-by-overwrite"),
    pytest.param(LIVE_READER, {0}, {}, id="reader-replay"),
    pytest.param(CHAIN, {0, 1}, {}, id="chain-replay"),
    pytest.param(NEVER_KILLED, {0}, {"verify_timeout": 2}, id="timeout"),
    pytest.param(LIVE_READER, {0}, {"recovery_mode": "flush"},
                 id="reader-flush"),
    pytest.param(CHAIN, {0, 1}, {"recovery_mode": "flush"},
                 id="chain-flush"),
    pytest.param(STORES, {1}, {"eliminate_stores": True}, id="dead-store"),
    pytest.param(LOOP, {1 + 4 * i for i in range(30)}, {}, id="loop"),
    pytest.param(CHAIN, {0, 1}, {"phys_regs": 33,
                                 "replay_reserve_pregs": 0},
                 id="chain-starved"),
    pytest.param(NEVER_KILLED, {0, 1}, {"verify_timeout": 1,
                                        "recovery_mode": "flush",
                                        "commit_width": 1},
                 id="timeout-flush"),
    pytest.param(SQUASHED_VERIFIER, {0, 1}, {"recovery_mode": "flush"},
                 id="squashed-verifier"),
    pytest.param(SQUASHED_VERIFIER, {0, 1}, {"phys_regs": 33,
                                             "replay_reserve_pregs": 0},
                 id="squashed-verifier-starved"),
]


@pytest.mark.parametrize("source, targets, overrides", SCENARIOS)
def test_scripted_scenarios_match_the_reference(source, targets,
                                                overrides):
    _, trace = run_program(assemble(source))
    analysis = analyze_deadness(trace)
    stats = assert_same(trace, default_config(eliminate=True, **overrides),
                        analysis, script=(targets, analysis))[0]
    assert stats["committed"] == len(trace)
