"""Linear-scan register allocation.

Virtual registers are mapped to the ABI's allocatable pools:

* caller-saved temporaries ``t0``-``t9`` — free to use, but clobbered
  by calls, so only intervals that do not span a call site get them;
* callee-saved ``s0``-``s7`` — survive calls, but the function must
  save and restore every one it touches (that save/restore code is the
  paper's second recognized source of dead instructions; codegen tags
  it ``callee-save``);
* anything that fits in neither pool spills to a stack slot, accessed
  through the reserved scratch registers ``k0``/``k1``.

Intervals are conservative whole-range approximations ([first point
where the vreg is live or defined, last point where it is live or
used], with block live-in/live-out points included so values live
across loop back edges cover the whole loop).  Allocation is the
classic Poletto/Sarkar scan: sort by start, expire actives, assign from
the preferred pool, spill when both pools are exhausted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lang.ir import Call, IRFunction, VReg
from repro.lang.liveness import compute_liveness

CALLER_SAVED = tuple("t%d" % i for i in range(10))
CALLEE_SAVED = tuple("s%d" % i for i in range(8))


@dataclass
class Location:
    """Where a vreg lives: a register name or a spill slot index."""

    register: Optional[str] = None
    spill_slot: Optional[int] = None

    @property
    def is_spilled(self) -> bool:
        return self.spill_slot is not None


@dataclass
class Allocation:
    """Result of register allocation for one function."""

    locations: Dict[VReg, Location] = field(default_factory=dict)
    used_callee_saved: List[str] = field(default_factory=list)
    n_spill_slots: int = 0
    has_calls: bool = False

    def location(self, vreg: VReg) -> Location:
        return self.locations[vreg]


@dataclass
class _Interval:
    vreg: VReg
    start: int
    end: int
    crosses_call: bool = False


def _build_intervals(function: IRFunction) -> Tuple[List[_Interval], bool]:
    """Conservative live intervals over the linearized instruction list."""
    liveness = compute_liveness(function)

    # The walk touches positions in non-decreasing order (a block's
    # live-in at its first position, then its instructions, then its
    # live-out at its last), so an interval runs from a vreg's first
    # touch to its last.
    starts: Dict[VReg, int] = {}
    ends: Dict[VReg, int] = {}
    call_positions: List[int] = []

    def touch(vregs: Iterable[VReg], position: int) -> None:
        for vreg in vregs:
            if vreg not in starts:
                starts[vreg] = position
            ends[vreg] = position

    position = 0
    for block in function.blocks:
        block_start = position
        touch(liveness.live_in[block.label], block_start)
        for instr in block.instrs:
            touch(instr.uses(), position)
            touch(instr.defs(), position)
            if isinstance(instr, Call):
                call_positions.append(position)
            position += 1
        if block.terminator is not None:
            touch(block.terminator.uses(), position)
            position += 1
        block_end = position - 1 if position > block_start else block_start
        touch(liveness.live_out[block.label], block_end)

    intervals = []
    for vreg, start in starts.items():
        end = ends[vreg]
        # Does any call sit strictly inside (start, end)?
        first_after = bisect_right(call_positions, start)
        crosses_call = (first_after < len(call_positions)
                        and call_positions[first_after] < end)
        intervals.append(_Interval(vreg, start, end, crosses_call))
    intervals.sort(key=lambda interval: (interval.start, interval.vreg.id))
    return intervals, bool(call_positions)


def allocate_registers(function: IRFunction) -> Allocation:
    """Assign every vreg of *function* a register or a spill slot."""
    intervals, has_calls = _build_intervals(function)
    allocation = Allocation(has_calls=has_calls)

    free_caller: List[str] = list(CALLER_SAVED)
    free_callee: List[str] = list(CALLEE_SAVED)
    # Registers of the live intervals, sorted by end (ties in insertion
    # order), and those ends.
    active: List[str] = []
    active_ends: List[int] = []
    used_callee: Set[str] = set()

    for interval in intervals:
        # Expire the intervals that ended before this one starts.
        expired = bisect_left(active_ends, interval.start)
        if expired:
            for register in active[:expired]:
                if register in CALLEE_SAVED:
                    free_callee.append(register)
                else:
                    free_caller.append(register)
            del active[:expired]
            del active_ends[:expired]
        register: Optional[str] = None
        if interval.crosses_call:
            if free_callee:
                register = free_callee.pop(0)
        else:
            if free_caller:
                register = free_caller.pop(0)
            elif free_callee:
                # A short interval may borrow a callee-saved register;
                # it costs a save/restore pair but avoids a spill.
                register = free_callee.pop(0)
        if register is None:
            slot = allocation.n_spill_slots
            allocation.n_spill_slots += 1
            allocation.locations[interval.vreg] = Location(spill_slot=slot)
            continue
        if register in CALLEE_SAVED:
            used_callee.add(register)
        allocation.locations[interval.vreg] = Location(register=register)
        index = bisect_right(active_ends, interval.end)
        active.insert(index, register)
        active_ends.insert(index, interval.end)

    allocation.used_callee_saved = sorted(used_callee)
    return allocation
