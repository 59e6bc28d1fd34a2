"""The ``python`` reference backend: straight-line ports of the
original per-consumer loops.

This backend defines the semantics every other backend must match
byte-for-byte.  The deadness logic is the exact backward dataflow pass
documented in :mod:`repro.analysis.liveness` (per-register liveness
flags, word-granular memory map, conservative end-of-program and
byte-store handling); the fused kernel runs the same pass and folds in
the two label-consuming walks that used to re-scan the trace:

* **kill distance** — the forward formulation ("record the pending dead
  write's distance when the next write to its register arrives") is
  re-expressed backward with a ``next_write[reg]`` table: at a write
  *i* to register *d*, the nearest later write ``next_write[d]`` is the
  killer, so a dead *i* records ``next_write[d] - i`` (or counts as
  unkilled when no later write exists — exactly the registers whose
  *last* write is dead, which is what the forward pass's leftover
  ``pending`` entries count).  Per register the two formulations visit
  the same (victim, killer) pairs; results are canonicalized to
  victim-ascending order (see :mod:`repro.kernels.base`).
* **per-static instance counters** — ``totals``/``deads`` accumulate in
  the same walk and are canonicalized to ascending static index.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.isa.program import TEXT_BASE
from repro.isa.registers import NUM_REGS
from repro.kernels.base import (
    DeadnessColumns,
    DecodedTrace,
    FusedColumns,
    KernelBackend,
    KillColumns,
    PredictionStream,
    StaticCounts,
    canonical_counts,
    canonical_kills,
)


class PythonBackend(KernelBackend):
    """Reference implementation (plain Python loops)."""

    name = "python"

    def _static_indices(self, trace) -> List[int]:
        base = TEXT_BASE
        if base:
            return [(pc - base) >> 2 for pc in trace.pcs]
        return [pc >> 2 for pc in trace.pcs]

    def _fused(self, decoded: DecodedTrace,
               track_stores: bool) -> FusedColumns:
        return _backward_pass(decoded, track_stores, fuse=True)

    def _deadness(self, decoded: DecodedTrace,
                  track_stores: bool) -> DeadnessColumns:
        return _backward_pass(decoded, track_stores, fuse=False).deadness

    def _static_counts(self, decoded: DecodedTrace,
                       dead: Sequence[bool]) -> StaticCounts:
        totals: Dict[int, int] = {}
        deads: Dict[int, int] = {}
        sidx = decoded.sidx
        for i in range(len(sidx)):
            si = sidx[i]
            totals[si] = totals.get(si, 0) + 1
            if dead[i]:
                deads[si] = deads.get(si, 0) + 1
        return canonical_counts(totals, deads)

    def _kill_distances(self, decoded: DecodedTrace,
                        dead: Sequence[bool]) -> KillColumns:
        sidx = decoded.sidx
        statics = decoded.statics
        s_dest = statics.dest
        provenance = statics.provenance

        # Forward formulation (the original distance.py loop), emitting
        # (victim, distance, tag) so the result can be canonicalized to
        # victim order.
        pending: List[Optional[int]] = [None] * NUM_REGS
        pairs = []
        for i in range(len(sidx)):
            si = sidx[i]
            dest = s_dest[si]
            if not dest:
                continue
            previous = pending[dest]
            if previous is not None:
                pairs.append((previous, i - previous,
                              provenance[sidx[previous]] or "original"))
            pending[dest] = i if dead[i] else None
        unkilled = sum(1 for entry in pending if entry is not None)
        pairs.sort(key=lambda pair: pair[0])
        return canonical_kills(pairs, unkilled)

    def _prediction_stream(self, decoded: DecodedTrace,
                           dead: Sequence[bool]) -> PredictionStream:
        trace = decoded.trace
        sidx = decoded.sidx
        pcs = trace.pcs
        taken = trace.taken
        eligible = decoded.statics.eligible
        is_cond = decoded.statics.is_cond_branch

        stream = PredictionStream()
        e_index = stream.eligible_index
        e_pc = stream.eligible_pc
        e_dead = stream.eligible_dead
        b_index = stream.branch_index
        b_taken = stream.branch_taken
        for i in range(len(sidx)):
            si = sidx[i]
            if eligible[si]:
                e_index.append(i)
                e_pc.append(pcs[i])
                e_dead.append(dead[i])
            elif is_cond[si]:
                b_index.append(i)
                b_taken.append(taken[i])
        return stream


def _backward_pass(decoded: DecodedTrace, track_stores: bool,
                   fuse: bool) -> FusedColumns:
    """The exact liveness.py backward dataflow pass; with *fuse* the
    kill-distance and per-static counters ride the same walk."""
    trace = decoded.trace
    statics = decoded.statics
    sidx = decoded.sidx
    addrs = trace.addrs
    n = len(sidx)

    s_dest = statics.dest
    s_src1 = statics.src1
    s_src2 = statics.src2
    s_side = statics.side_effect
    s_load = statics.is_load
    s_store = statics.is_store
    s_byte = statics.is_byte
    s_eligible = statics.eligible
    provenance = statics.provenance

    dead = [False] * n
    direct = [False] * n

    # Backward state.  reg_live[r]: will the value currently in r be
    # read by a useful instruction later in the program?  reg_touched[r]:
    # will it be read by *any* instruction (useful or dead)?  End of
    # program: conservatively live, hence unread values stay "live".
    reg_live = [True] * NUM_REGS
    reg_touched = [False] * NUM_REGS
    mem_live: Dict[int, bool] = {}
    mem_touched: Dict[int, bool] = {}

    n_dead = n_direct = n_dead_stores = n_eligible = 0

    # Fused extras: nearest later register write (the prospective
    # killer), (victim, distance, tag) triples, per-static counters.
    next_write: List[Optional[int]] = [None] * NUM_REGS
    kill_pairs = []
    unkilled = 0
    totals: Dict[int, int] = {}
    deads: Dict[int, int] = {}

    for i in range(n - 1, -1, -1):
        si = sidx[i]
        dest = s_dest[si]
        is_store = s_store[si]
        if fuse:
            totals[si] = totals.get(si, 0) + 1

        if dest:
            n_eligible += s_eligible[si]
            value_live = reg_live[dest]
            value_touched = reg_touched[dest]
            useful = value_live or s_side[si]
            # This write supersedes the previous one: reset state for
            # the *previous* writer's value (which instructions between
            # it and here may yet read, going further backward).
            reg_live[dest] = False
            reg_touched[dest] = False
            if not useful:
                dead[i] = True
                n_dead += 1
                if fuse:
                    deads[si] = deads.get(si, 0) + 1
                    killer = next_write[dest]
                    if killer is not None:
                        kill_pairs.append((i, killer - i,
                                           provenance[si] or "original"))
                    else:
                        unkilled += 1
                    next_write[dest] = i
                if not value_touched:
                    direct[i] = True
                    n_direct += 1
                # A dead instruction contributes no uses: do not mark
                # its sources live (transitive propagation), but its
                # reads are still architectural reads for "touched".
                src = s_src1[si]
                if src > 0:
                    reg_touched[src] = True
                src = s_src2[si]
                if src > 0:
                    reg_touched[src] = True
                if s_load[si] and not s_byte[si]:
                    mem_touched[addrs[i] & ~3] = True
                continue
            if fuse:
                next_write[dest] = i
            # Useful value-producing instruction: mark sources live.
            src = s_src1[si]
            if src > 0:
                reg_live[src] = True
                reg_touched[src] = True
            src = s_src2[si]
            if src > 0:
                reg_live[src] = True
                reg_touched[src] = True
            if s_load[si]:
                word = addrs[i] & ~3
                mem_live[word] = True
                mem_touched[word] = True
            continue

        if is_store:
            if track_stores and not s_byte[si]:
                word = addrs[i] & ~3
                store_live = mem_live.get(word, True)
                store_touched = mem_touched.get(word, False)
                mem_live[word] = False
                mem_touched[word] = False
                if not store_live:
                    dead[i] = True
                    n_dead += 1
                    n_dead_stores += 1
                    if fuse:
                        deads[si] = deads.get(si, 0) + 1
                    if not store_touched:
                        direct[i] = True
                        n_direct += 1
                    src = s_src1[si]
                    if src > 0:
                        reg_touched[src] = True
                    src = s_src2[si]
                    if src > 0:
                        reg_touched[src] = True
                    continue
            # Live store (or byte store, always conservative): both the
            # address and the stored value are useful.
            src = s_src1[si]
            if src > 0:
                reg_live[src] = True
                reg_touched[src] = True
            src = s_src2[si]
            if src > 0:
                reg_live[src] = True
                reg_touched[src] = True
            continue

        # No destination, not a store: branches, jumps writing nothing,
        # syscalls, halt, nop.  Side-effecting ones are usefulness
        # roots; their sources are live.
        src = s_src1[si]
        if src > 0:
            reg_live[src] = True
            reg_touched[src] = True
        src = s_src2[si]
        if src > 0:
            reg_live[src] = True
            reg_touched[src] = True

    deadness = DeadnessColumns(
        dead=dead, direct=direct, n_eligible=n_eligible, n_dead=n_dead,
        n_direct=n_direct, n_dead_stores=n_dead_stores)
    kill_pairs.reverse()
    return FusedColumns(
        deadness=deadness,
        kills=canonical_kills(kill_pairs, unkilled),
        counts=canonical_counts(totals, deads))
