"""The speculative-hoisting scheduler: it must move code, tag it, and
never change program behaviour."""

import itertools

import pytest

from repro.emulator import run_program
from repro.lang import CompilerOptions, compile_to_program
from repro.lang import schedule
from repro.lang.codegen import generate_module
from repro.lang.ir import CondBr, Load
from repro.lang.liveness import compute_liveness
from repro.lang.lower import lower_program
from repro.lang.optimize import optimize_module
from repro.lang.parser import parse
from repro.lang.schedule import (
    ScheduleOptions,
    ScheduleStats,
    _hoist_prefix,
    hoist_module,
)
from repro.workloads import get_workload, workload_names

DIAMOND = """
int data[4] = {10, 20, 30, 40};
int n = 4;

void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    int v = data[i];
    if (v > 15) {
      acc = acc + v * 2;
    } else {
      acc = acc - 1;
    }
  }
  print(acc);
}
"""


def test_hoisting_moves_instructions():
    module = lower_program(parse(DIAMOND))
    stats = hoist_module(module, ScheduleOptions())
    assert stats.branches_seen >= 2
    assert stats.instructions_hoisted >= 1


def test_hoisted_instructions_are_tagged():
    module = lower_program(parse(DIAMOND))
    hoist_module(module, ScheduleOptions())
    tagged = [
        instr
        for function in module.functions
        for block in function.blocks
        for instr in block.instrs
        if instr.provenance == "sched"
    ]
    assert tagged
    # Hoisted instructions sit in blocks ending in conditional branches.
    for function in module.functions:
        for block in function.blocks:
            if any(i.provenance == "sched" for i in block.instrs):
                assert isinstance(block.terminator, CondBr)


def test_max_hoist_limit():
    module_limited = lower_program(parse(DIAMOND))
    limited = hoist_module(module_limited, ScheduleOptions(max_hoist=1))
    module_full = lower_program(parse(DIAMOND))
    full = hoist_module(module_full, ScheduleOptions(max_hoist=8))
    assert limited.instructions_hoisted <= full.instructions_hoisted


def test_loads_not_hoisted_by_default():
    source = """
int data[4] = {1, 2, 3, 4};
int n = 4;
void main() {
  int i;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    if (i < n) {
      acc = acc + data[i];
    }
  }
  print(acc);
}
"""
    module = lower_program(parse(source))
    hoist_module(module, ScheduleOptions())
    for function in module.functions:
        for block in function.blocks:
            for instr in block.instrs:
                if isinstance(instr, Load):
                    assert instr.provenance != "sched"


def test_branch_operands_never_clobbered():
    module = lower_program(parse(DIAMOND))
    hoist_module(module, ScheduleOptions(max_hoist=16))
    for function in module.functions:
        for block in function.blocks:
            terminator = block.terminator
            if not isinstance(terminator, CondBr):
                continue
            used = set(terminator.uses())
            for instr in block.instrs:
                if instr.provenance == "sched":
                    assert not (set(instr.defs()) & used)


SEMANTIC_PROGRAMS = [
    DIAMOND,
    # Both arms assign the same variable (the canonical pattern).
    """
int n = 10;
void main() {
  int i;
  int x = 0;
  for (i = 0; i < n; i = i + 1) {
    int y;
    if (i % 3 == 0) { y = i * 5; } else { y = i - 1; }
    x = x + y;
  }
  print(x);
}
""",
    # Nested conditionals with dependent computation.
    """
int n = 12;
void main() {
  int i;
  int a = 0;
  int b = 0;
  for (i = 0; i < n; i = i + 1) {
    if (i % 2 == 0) {
      a = a + i * i;
      if (i % 4 == 0) { b = b + 1; } else { b = b - a; }
    } else {
      a = a - 1;
    }
  }
  print(a);
  print(b);
}
""",
]


def test_hoisting_preserves_semantics():
    for source in SEMANTIC_PROGRAMS:
        baseline = compile_to_program(source, CompilerOptions(opt_level=0))
        optimized = compile_to_program(source, CompilerOptions(opt_level=2))
        machine_base, _ = run_program(baseline)
        machine_opt, _ = run_program(optimized)
        assert machine_base.output == machine_opt.output


def test_aggressive_hoisting_preserves_semantics():
    for source in SEMANTIC_PROGRAMS:
        options = CompilerOptions(opt_level=2, max_hoist=16,
                                  hoist_loads=True)
        baseline = compile_to_program(source, CompilerOptions(opt_level=0))
        optimized = compile_to_program(source, options)
        machine_base, _ = run_program(baseline)
        machine_opt, _ = run_program(optimized)
        assert machine_base.output == machine_opt.output


# ---------------------------------------------------------------------
# The pass solves liveness once per function; this is the per-arm
# re-solve it replaced, kept as the reference it must agree with.
# ---------------------------------------------------------------------

def reference_hoist_function(function, options):
    stats = ScheduleStats()
    blocks = function.block_map()
    predecessors = function.predecessors()
    for block in function.blocks:
        terminator = block.terminator
        if not isinstance(terminator, CondBr):
            continue
        stats.branches_seen += 1
        branch_uses = set(terminator.uses())
        arms = (terminator.if_true, terminator.if_false)
        for arm_label, other_label in (arms, arms[::-1]):
            if arm_label == other_label:
                continue
            if len(predecessors[arm_label]) != 1:
                continue
            liveness = compute_liveness(function)
            stats.instructions_hoisted += _hoist_prefix(
                block, blocks[arm_label], branch_uses,
                liveness.live_in[other_label], liveness.live_in[arm_label],
                options)
    return stats


#: every (branchiness, bias) cell at sizes up to n100; the largest,
#: most branchy programs are left out to keep the reference affordable
GENERATED = ["gen:s%d:n%d:b%d:d30:p%d" % ((seed,) + cell)
             for seed, cell in enumerate(itertools.product(
                 (15, 30, 50, 100), (20, 40, 60), (95, 50)), start=1)][:20]

OPTION_SETS = {
    "default": CompilerOptions(),
    "max_hoist=1": CompilerOptions(max_hoist=1),
    "max_hoist=8": CompilerOptions(max_hoist=8),
    "hoist_loads": CompilerOptions(hoist_loads=True),
    "scalar_opt": CompilerOptions(scalar_opt=True),
}


def _schedule(source, options):
    """compile_source, also returning the scheduler's ScheduleStats."""
    module = lower_program(parse(source))
    if options.scalar_opt:
        optimize_module(module)
    stats = hoist_module(module, ScheduleOptions(
        max_hoist=options.max_hoist, hoist_loads=options.hoist_loads))
    return generate_module(module), stats


@pytest.mark.parametrize("name", GENERATED + workload_names())
def test_matches_per_arm_liveness_resolve(name, monkeypatch):
    source = get_workload(name).source(1.0)
    for label, options in OPTION_SETS.items():
        actual = _schedule(source, options)
        with monkeypatch.context() as patch:
            patch.setattr(schedule, "hoist_function",
                          reference_hoist_function)
            expected = _schedule(source, options)
        assert actual == expected, (name, label)


def test_local_updates_match_full_resolve(monkeypatch):
    """After every hoist, the locally updated sets equal a full solve."""
    real_update = schedule.update_after_hoist
    checked = []

    def checking_update(liveness, block, arm):
        real_update(liveness, block, arm)
        resolved = compute_liveness(function)
        assert liveness.live_in == resolved.live_in
        assert liveness.live_out == resolved.live_out
        checked.append(arm.label)

    monkeypatch.setattr(schedule, "update_after_hoist", checking_update)
    for name in GENERATED[:6] + ["qsort", "board"]:
        module = lower_program(parse(get_workload(name).source(1.0)))
        for function in module.functions:
            schedule.hoist_function(function, ScheduleOptions(max_hoist=8))
    assert len(checked) > 50


def test_liveness_solved_once_per_function(monkeypatch):
    """The per-arm re-solve made compile time quadratic in program
    size; it must not come back."""
    calls = []

    def counting(function):
        calls.append(function.name)
        return compute_liveness(function)

    monkeypatch.setattr(schedule, "compute_liveness", counting)
    module = lower_program(parse(get_workload(
        "gen:s3:n100:b60:d30:p50").source(1.0)))
    stats = hoist_module(module, ScheduleOptions())
    assert stats.branches_seen > 20 and stats.instructions_hoisted > 0
    assert sorted(calls) == sorted(f.name for f in module.functions)
