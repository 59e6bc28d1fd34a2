"""Backward liveness dataflow over the IR CFG.

Classic iterative analysis on virtual registers::

    live_out(B) = union of live_in(S) for S in successors(B)
    live_in(B)  = use(B) | (live_out(B) - def(B))

where ``use(B)`` is the set of vregs with an upward-exposed use in B.
Used by the speculative-hoisting scheduler (safety conditions) and the
linear-scan register allocator (interval construction).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from repro.lang.ir import Block, IRFunction, VReg


class LivenessInfo:
    """Per-block live-in/live-out sets for one function."""

    def __init__(self, live_in: Dict[str, Set[VReg]],
                 live_out: Dict[str, Set[VReg]]):
        self.live_in = live_in
        self.live_out = live_out


def block_use_def(block: Block) -> Tuple[Set[VReg], Set[VReg]]:
    """Upward-exposed uses and defs of one block (terminator included)."""
    uses: Set[VReg] = set()
    defs: Set[VReg] = set()
    for instr in block.instrs:
        for vreg in instr.uses():
            if vreg not in defs:
                uses.add(vreg)
        defs.update(instr.defs())
    if block.terminator is not None:  # a terminator defines nothing
        for vreg in block.terminator.uses():
            if vreg not in defs:
                uses.add(vreg)
    return uses, defs


def update_after_hoist(liveness: LivenessInfo, block: Block,
                       arm: Block) -> None:
    """Refresh *liveness* after instructions moved from *arm* to the end
    of *block*, the arm's only predecessor.

    Only two sets change: ``live_in(arm)``, from the arm's new use/def
    and its unchanged live-out, and ``live_out(block)``.  A moved def
    was live into neither arm, is not read by the terminator and is now
    killed inside *block*; every moved use was already live out of
    *block* or is defined earlier in it.  So ``live_in(block)`` -- and
    with it every other block's sets -- stays as it was, and the result
    equals a full :func:`compute_liveness` of the changed function.
    """
    uses, defs = block_use_def(arm)
    liveness.live_in[arm.label] = uses | (liveness.live_out[arm.label]
                                          - defs)
    out: Set[VReg] = set()
    for successor in block.successors():
        out |= liveness.live_in[successor]
    liveness.live_out[block.label] = out


def compute_liveness(function: IRFunction) -> LivenessInfo:
    """Iterate the backward dataflow to a fixpoint."""
    use: Dict[str, FrozenSet[VReg]] = {}
    define: Dict[str, FrozenSet[VReg]] = {}
    for block in function.blocks:
        block_uses, block_defs = block_use_def(block)
        use[block.label] = frozenset(block_uses)
        define[block.label] = frozenset(block_defs)

    live_in: Dict[str, Set[VReg]] = {b.label: set() for b in function.blocks}
    live_out: Dict[str, Set[VReg]] = {b.label: set()
                                      for b in function.blocks}
    # Iterate blocks in reverse layout order for fast convergence.
    order = [(block.label, block.successors())
             for block in reversed(function.blocks)]
    changed = True
    while changed:
        changed = False
        for label, successors in order:
            out: Set[VReg] = set()
            for successor in successors:
                out |= live_in[successor]
            new_in = use[label] | (out - define[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True
    return LivenessInfo(live_in, live_out)
