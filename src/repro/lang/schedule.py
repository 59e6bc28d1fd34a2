"""Speculative hoisting — the compiler pass the paper blames.

Out-of-order cores reward compilers for issuing work early, so
schedulers move side-effect-free instructions from a branch's successor
blocks *above* the branch (global code motion / speculation).  The cost
the paper quantifies: on every dynamic path that takes the *other* arm,
the hoisted instruction's result is never used — a dynamically dead
instance of an otherwise useful static instruction ("partially dead").

This pass performs exactly that motion on the IR CFG.  For each block B
ending in a conditional branch with arms T and F, it moves up to
``max_hoist`` leading instructions from each single-predecessor arm to
the end of B, subject to the safety conditions below, and tags each
moved instruction with ``sched`` provenance.

Safety conditions for hoisting instruction I (defining ``d``) from arm
S (other arm O):

1. I is speculation-safe (``side_effect_free``; loads only when the
   ``hoist_loads`` option is set, since a hoisted load can compute a
   wild address on the path where its guard fails);
2. every vreg I uses is defined before S (not by a non-hoisted
   instruction earlier in S's prefix);
3. ``d`` is not live-in to O (hoisting must not clobber a value the
   other path reads) and not live-in to S (no use of the old value
   above I — guaranteed for the scanned prefix, checked anyway);
4. ``d`` is not read by B's terminator (the branch must still see its
   original operands);
5. ``d`` is not defined by an earlier non-hoisted instruction in the
   scanned prefix (ordering within S must be preserved).

Note that condition 3 deliberately *permits* the canonical
partial-deadness pattern: when both arms assign the same variable,
``d`` is not live-in to either arm, hoisting the first arm's assignment
is safe (the other arm overwrites it), and every trip down the other
arm manufactures a dead instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.lang.ir import (
    Block,
    CondBr,
    IRFunction,
    IRModule,
    Load,
    LoadGlobal,
    VReg,
)
from repro.lang.liveness import compute_liveness, update_after_hoist

#: Provenance tag attached to every hoisted instruction.
SCHED_TAG = "sched"


@dataclass
class ScheduleOptions:
    """Aggressiveness knobs for the hoisting scheduler."""

    #: maximum instructions hoisted from each branch arm
    max_hoist: int = 4
    #: also hoist (speculation-safe in this ISA, but can widen the
    #: memory footprint) loads
    hoist_loads: bool = False


@dataclass
class ScheduleStats:
    """What the pass did, for the compiler's -v output and tests."""

    branches_seen: int = 0
    instructions_hoisted: int = 0


def _hoistable(instr, options: ScheduleOptions) -> bool:
    if instr.side_effect_free:
        return True
    if options.hoist_loads and isinstance(instr, (Load, LoadGlobal)):
        return True
    return False


def hoist_function(function: IRFunction,
                   options: ScheduleOptions) -> ScheduleStats:
    """Run speculative hoisting over one function, in place.

    Liveness is solved once; each hoist then refreshes only the two sets
    it changes (:func:`update_after_hoist`), so the sets every arm sees
    equal a full re-solve at that point.
    """
    stats = ScheduleStats()
    blocks = function.block_map()
    predecessors = function.predecessors()
    liveness = compute_liveness(function)

    for block in function.blocks:
        terminator = block.terminator
        if not isinstance(terminator, CondBr):
            continue
        stats.branches_seen += 1
        branch_uses: Set[VReg] = set(terminator.uses())
        arms = (terminator.if_true, terminator.if_false)
        for arm_label, other_label in (arms, arms[::-1]):
            if arm_label == other_label:
                continue
            if len(predecessors[arm_label]) != 1:
                continue
            arm = blocks[arm_label]
            hoisted = _hoist_prefix(block, arm, branch_uses,
                                    liveness.live_in[other_label],
                                    liveness.live_in[arm_label], options)
            if hoisted:
                update_after_hoist(liveness, block, arm)
            stats.instructions_hoisted += hoisted
    return stats


def _hoist_prefix(block: Block, arm: Block, branch_uses: Set[VReg],
                  live_in_other: Set[VReg], live_in_arm: Set[VReg],
                  options: ScheduleOptions) -> int:
    """Hoist a safe leading prefix of *arm* into *block*; return count."""
    defined_in_arm: Set[VReg] = set()
    used_by_skipped: Set[VReg] = set()
    hoisted = 0
    index = 0
    while index < len(arm.instrs) and hoisted < options.max_hoist:
        instr = arm.instrs[index]
        if not _hoistable(instr, options):
            break
        defs = instr.defs()
        if len(defs) != 1:
            break
        dst = defs[0]
        if any(vreg in defined_in_arm for vreg in instr.uses()):
            # Depends on an instruction we are not moving; later
            # instructions may still be independent, but moving them
            # past this one could reorder defs -- stop scanning.
            break
        unsafe = (dst in live_in_other or dst in live_in_arm
                  or dst in branch_uses or dst in defined_in_arm
                  # Hoisting would lift this def above a skipped
                  # instruction that reads dst's old value.
                  or dst in used_by_skipped)
        if unsafe:
            defined_in_arm.add(dst)
            used_by_skipped.update(instr.uses())
            index += 1
            continue
        # Move it: append to the predecessor, before the terminator.
        del arm.instrs[index]
        instr.provenance = SCHED_TAG
        block.instrs.append(instr)
        hoisted += 1
    return hoisted


def hoist_module(module: IRModule,
                 options: ScheduleOptions = None) -> ScheduleStats:
    """Run the scheduler over every function; return combined stats."""
    if options is None:
        options = ScheduleOptions()
    total = ScheduleStats()
    for function in module.functions:
        stats = hoist_function(function, options)
        total.branches_seen += stats.branches_seen
        total.instructions_hoisted += stats.instructions_hoisted
    return total
