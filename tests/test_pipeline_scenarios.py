"""Hand-crafted elimination scenarios.

The fuzz tests establish that no configuration breaks the invariants;
these tests force *specific* corner cases through a scripted
elimination engine (eliminate exactly the dynamic instances I say, fed
to the core through the same columns the real engine fills) so each
soundness mechanism is exercised deterministically:

* reader-triggered replay of a single instruction,
* chained replay through transitively eliminated producers,
* verification by overwrite (no recovery at all),
* the verify-timeout path,
* flush-mode recovery.
"""

import pytest

from repro.analysis import analyze_deadness
from repro.emulator import run_program
from repro.isa import assemble
from repro.pipeline import default_config, simulate
from repro.pipeline.core import Simulator
from repro.predictors import PathDeadPredictor


class ScriptedElimination:
    """Drop-in for EliminationEngine: eliminates chosen trace indices.

    It fills the columns the core reads at rename and commit.  Slot 1
    of a two-entry table holds a saturated "dead" entry and slot 0
    stays empty.  Each chosen instance looks up along path 1 (slot 1)
    and every other lookup along path 0 (slot 0, a tag miss).  Training
    runs along path 0 with live labels, and a live outcome on a tag
    miss changes nothing, so the script never drifts.
    """

    def __init__(self, target_indices, analysis):
        n = len(analysis.trace)
        n_static = len(analysis.statics)
        self.predictor = PathDeadPredictor(entries=2, tag_bits=1,
                                           path_bits=1, conf_bits=1,
                                           threshold=1)
        self.predictor.tags[1] = 0
        self.predictor.confs[1] = 1
        self.slot_base = [0] * n_static
        self.slot_tag = [0] * n_static
        self.predicted_path = bytes(tidx in target_indices
                                    for tidx in range(n))
        self.actual_path = bytes(n)
        self.dead_labels = [False] * n
        self.blacklist = set()
        self.strikes = {}
        self.max_strikes = 1
        self.recoveries = []
        self.successes = []

    def note_success(self, pc):
        self.successes.append(pc)

    def note_recovery(self, tidx, pc):
        self.blacklist.add(tidx)
        self.recoveries.append(tidx)

    def decay_strikes(self):
        pass


def _simulate_with_script(source, target_indices, **config_overrides):
    program = assemble(source)
    machine, trace = run_program(program)
    analysis = analyze_deadness(trace)
    config = default_config(eliminate=True, **config_overrides)
    simulator = Simulator(trace, config, analysis)
    script = ScriptedElimination(target_indices, analysis)
    simulator.elimination = script
    result = simulator.run()
    assert result.stats.committed == len(trace)
    return result, script, trace


DEAD_THEN_KILLED = """
    li   t0, 1          # 0: dead (killed by 2)
    nop                 # 1
    li   t0, 2          # 2: the killer
    move a0, t0         # 3
    li   v0, 1          # 4
    syscall             # 5
    halt                # 6
"""


def test_verified_by_overwrite_no_recovery():
    result, script, _ = _simulate_with_script(DEAD_THEN_KILLED, {0})
    stats = result.stats
    assert stats.eliminated == 1
    assert stats.recoveries == 0
    assert stats.replayed == 0
    assert script.successes  # committed verified
    # The elimination saved one allocation and one write.
    assert stats.preg_allocs == 3  # 4 register writes minus 1
    assert stats.rf_writes == 3


LIVE_READER = """
    li   t0, 7          # 0: LIVE -- a0 reads it
    move a0, t0         # 1: the reader
    li   v0, 1          # 2
    syscall             # 3
    halt                # 4
"""


def test_reader_triggers_replay():
    result, script, _ = _simulate_with_script(LIVE_READER, {0})
    stats = result.stats
    assert stats.eliminated == 1
    assert stats.reader_recoveries == 1
    assert stats.replayed == 1
    assert script.recoveries == [0]
    # Replay re-allocated the register: net allocations unchanged.
    assert stats.preg_allocs == 3


CHAIN = """
    li   t0, 3          # 0: producer (eliminate)
    add  t1, t0, t0     # 1: middle, reads token of 0 (eliminate)
    add  a0, t1, t1     # 2: LIVE consumer -> chain replay of 1 and 0
    li   v0, 1          # 3
    syscall             # 4
    halt                # 5
"""


def test_chained_replay():
    result, script, _ = _simulate_with_script(CHAIN, {0, 1})
    stats = result.stats
    assert stats.eliminated == 2
    assert stats.reader_recoveries == 1
    assert stats.replayed == 2  # both chain members re-dispatched
    assert stats.flush_recoveries == 0


NEVER_KILLED = """
    li   t0, 9          # 0: never overwritten, never read
    li   t1, 1          # 1
    move a0, t1         # 2
    li   v0, 1          # 3
    syscall             # 4
    halt                # 5
"""


def test_timeout_replays_unverified_head():
    result, script, _ = _simulate_with_script(NEVER_KILLED, {0},
                                              verify_timeout=2)
    stats = result.stats
    assert stats.eliminated == 1
    assert stats.timeout_recoveries == 1
    assert stats.replayed == 1
    assert stats.verify_stall_cycles >= 2


def test_flush_mode_reader_recovery():
    result, script, trace = _simulate_with_script(
        LIVE_READER, {0}, recovery_mode="flush")
    stats = result.stats
    assert stats.reader_recoveries == 1
    assert stats.flush_recoveries == 1
    assert stats.replayed == 0
    assert stats.squashed >= 1
    # After the flush, instance 0 is blacklisted and re-executes.
    assert 0 in script.blacklist
    assert stats.committed == len(trace)


def test_flush_mode_chain():
    result, script, trace = _simulate_with_script(
        CHAIN, {0, 1}, recovery_mode="flush")
    stats = result.stats
    assert stats.committed == len(trace)
    assert stats.flush_recoveries >= 1


def test_eliminated_store_commits_without_verification():
    source = """
    li   t0, 5          # 0
    sw   t0, 0(gp)      # 1: dead store (eliminate)
    li   t1, 6          # 2
    sw   t1, 0(gp)      # 3: overwriting store
    lw   a0, 0(gp)      # 4
    li   v0, 1          # 5
    syscall             # 6
    halt                # 7
"""
    result, script, _ = _simulate_with_script(source, {1},
                                              eliminate_stores=True)
    stats = result.stats
    assert stats.eliminated == 1
    assert stats.recoveries == 0
    # One data-cache access saved (stores access at commit).
    base = simulate(result_trace_of(source), default_config())
    assert stats.dcache_accesses == base.stats.dcache_accesses - 1


def result_trace_of(source):
    program = assemble(source)
    _, trace = run_program(program)
    return trace


def test_back_to_back_same_register_eliminations():
    """Two consecutive eliminated writes to the same register: the
    second verifies the first; the third (real) write verifies the
    second."""
    source = """
    li   t0, 1          # 0: eliminate
    li   t0, 2          # 1: eliminate (verifies 0)
    li   t0, 3          # 2: real killer (verifies 1)
    move a0, t0         # 3
    li   v0, 1          # 4
    syscall             # 5
    halt                # 6
"""
    result, script, _ = _simulate_with_script(source, {0, 1})
    stats = result.stats
    assert stats.eliminated == 2
    assert stats.recoveries == 0


def test_elimination_inside_loop_body():
    """A dead write in a loop is verified by its own next-iteration
    instance across many iterations."""
    source = """
    li   t2, 30
loop:
    li   t1, 5          # dead every iteration but the check below
    li   t1, 6
    addi t2, t2, -1
    bnez t2, loop
    move a0, t1
    li   v0, 1
    syscall
    halt
"""
    program = assemble(source)
    machine, trace = run_program(program)
    analysis = analyze_deadness(trace)
    # Eliminate every instance of the first loop 'li t1, 5' (pc 4).
    targets = {i for i in range(len(trace)) if trace.pcs[i] == 4
               and analysis.dead[i]}
    assert len(targets) == 30
    config = default_config(eliminate=True)
    simulator = Simulator(trace, config, analysis)
    simulator.elimination = ScriptedElimination(targets, analysis)
    result = simulator.run()
    assert result.stats.committed == len(trace)
    assert result.stats.eliminated == 30
    assert result.stats.recoveries == 0
