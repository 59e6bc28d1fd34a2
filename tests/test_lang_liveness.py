"""CFG liveness dataflow on the IR."""

from repro.lang.ir import (
    BinOp,
    Block,
    CondBr,
    IRFunction,
    Jump,
    Move,
    Print,
    Ret,
    VReg,
)
from repro.lang.liveness import (
    block_use_def,
    compute_liveness,
    update_after_hoist,
)


def _diamond():
    """entry: a=1; if a<2 -> left | right; left: b=a; right: b=2;
    join: print(b); ret."""
    a, b = VReg(0), VReg(1)
    entry = Block("entry", [Move(dst=a, src=1)],
                  CondBr(op="<", a=a, b=2, if_true="left",
                         if_false="right"))
    left = Block("left", [Move(dst=b, src=a)], Jump(target="join"))
    right = Block("right", [Move(dst=b, src=2)], Jump(target="join"))
    join = Block("join", [Print(value=b)], Ret())
    function = IRFunction(name="f", blocks=[entry, left, right, join],
                          next_vreg=2)
    return function, a, b


def test_block_use_def():
    a, b = VReg(0), VReg(1)
    block = Block("x", [Move(dst=a, src=5),
                        BinOp(dst=b, op="+", a=a, b=VReg(2))],
                  Ret(value=b))
    uses, defs = block_use_def(block)
    assert uses == {VReg(2)}  # a is defined before use, b too
    assert defs == {a, b}


def test_diamond_liveness():
    function, a, b = _diamond()
    liveness = compute_liveness(function)
    # a is live into 'left' (used there) but not into 'right'.
    assert a in liveness.live_in["left"]
    assert a not in liveness.live_in["right"]
    # b is live into the join from both arms.
    assert b in liveness.live_in["join"]
    assert b in liveness.live_out["left"]
    assert b in liveness.live_out["right"]
    # Nothing is live out of the exit block.
    assert liveness.live_out["join"] == set()
    # a is live out of entry only because of the left arm.
    assert a in liveness.live_out["entry"]


def test_loop_liveness():
    """i is live around the back edge of a counting loop."""
    i = VReg(0)
    entry = Block("entry", [Move(dst=i, src=0)], Jump(target="head"))
    head = Block("head", [], CondBr(op="<", a=i, b=10, if_true="body",
                                    if_false="exit"))
    body = Block("body", [BinOp(dst=i, op="+", a=i, b=1)],
                 Jump(target="head"))
    exit_block = Block("exit", [Print(value=i)], Ret())
    function = IRFunction(name="loop",
                          blocks=[entry, head, body, exit_block],
                          next_vreg=1)
    liveness = compute_liveness(function)
    assert i in liveness.live_in["head"]
    assert i in liveness.live_out["body"]   # back edge
    assert i in liveness.live_in["exit"]


def test_update_after_hoist_matches_full_solve():
    """Moving right's ``b = 2`` above the branch (the canonical
    partially dead hoist) changes live_in(right) and live_out(entry);
    the local update must land on the full re-solve."""
    function, a, b = _diamond()
    liveness = compute_liveness(function)
    entry, _, right, _ = function.blocks
    entry.instrs.append(right.instrs.pop(0))
    update_after_hoist(liveness, entry, right)
    resolved = compute_liveness(function)
    assert liveness.live_in == resolved.live_in
    assert liveness.live_out == resolved.live_out
    assert b in liveness.live_in["right"]
    assert liveness.live_in["entry"] == set()


def test_dead_def_not_live():
    a, b = VReg(0), VReg(1)
    block = Block("entry", [Move(dst=a, src=1), Move(dst=b, src=2)],
                  Ret(value=b))
    function = IRFunction(name="f", blocks=[block], next_vreg=2)
    liveness = compute_liveness(function)
    assert liveness.live_in["entry"] == set()
    assert liveness.live_out["entry"] == set()
