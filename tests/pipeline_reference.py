"""The cycle loop that ``repro.pipeline.core`` replaced, kept as a
reference for ``tests/test_pipeline_reference.py``.

This core renamed through physical-register numbers: ``rat[arch]``
held an ``int`` register or an :class:`InFlight` token (the
eliminated producer), a deque held the free list and ``ready_at`` the
completion cycle of each register.  The trace-indexed core must give
the same :class:`PipelineStats`, field for field, and the same cache
miss counts and timeline samples on every machine.  The code below is
the old loop, unchanged except for the class name.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.analysis.liveness import DeadnessAnalysis, analyze_deadness
from repro.analysis.statics import StaticTable
from repro.emulator.trace import Trace
from repro.isa.instructions import Opcode
from repro.obs import new_timeline
from repro.pipeline.cache import build_hierarchy
from repro.pipeline.config import MachineConfig, default_config
from repro.pipeline.core import PipelineResult, control_flags
from repro.pipeline.elimination import EliminationEngine
from repro.pipeline.stats import PipelineStats

_INF = 1 << 60

# Function-unit classes.
_FU_ALU, _FU_MUL, _FU_DIV, _FU_MEM, _FU_BRANCH = range(5)

_NUM_ARCH = 32


class InFlight:
    """One in-flight instruction (ROB entry)."""

    __slots__ = ("seq", "tidx", "sidx", "pc", "fu", "srcs", "src_tokens",
                 "token_readers", "arch_dest", "new_preg", "old_preg",
                 "is_load", "is_store", "mispredict", "eliminated",
                 "verified", "verifies", "verified_by", "done_at",
                 "squashed", "committed", "recovered", "stall_cycles")

    def __init__(self, seq: int, tidx: int, sidx: int, pc: int, fu: int,
                 srcs: List[int], src_tokens: List["InFlight"],
                 arch_dest: int, old_preg, new_preg: Optional[int],
                 is_load: bool, is_store: bool, mispredict: int,
                 eliminated: bool):
        self.seq = seq
        self.tidx = tidx
        self.sidx = sidx
        self.pc = pc
        self.fu = fu
        self.srcs = srcs
        self.src_tokens = src_tokens
        self.token_readers: List["InFlight"] = []
        self.arch_dest = arch_dest
        self.old_preg = old_preg  # int or InFlight token; None: no dest
        self.new_preg = new_preg
        self.is_load = is_load
        self.is_store = is_store
        self.mispredict = mispredict
        self.eliminated = eliminated
        self.verified = False
        self.verifies: Optional["InFlight"] = None
        self.verified_by: Optional["InFlight"] = None
        self.done_at = _INF
        self.squashed = False
        self.committed = False
        self.recovered = False
        self.stall_cycles = 0

    def commit_ready(self) -> bool:
        """May this verified eliminated instruction commit?"""
        if not self.verified:
            return False
        for reader in self.token_readers:
            if reader.eliminated and not (reader.verified
                                          or reader.squashed):
                return False
        return True


#: Function-unit class by opcode, for the classes that depend on it.
_FU_BY_OPCODE = {Opcode.MUL: _FU_MUL, Opcode.MULH: _FU_MUL,
                 Opcode.DIV: _FU_DIV, Opcode.REM: _FU_DIV}


def _decode_statics(statics: StaticTable,
                    elim: Optional[EliminationEngine],
                    eliminate_stores: bool) -> List[tuple]:
    """One tuple of rename-time facts per static instruction:
    ``(pc, dest, src1, src2, is_load, is_store, is_mem, fu, slot_base,
    slot_tag)``.  ``slot_base`` is None where rename does not consult
    the dead predictor: everywhere without elimination, else everywhere
    but eligible instructions and (with ``eliminate_stores``) stores."""
    is_load = statics.is_load
    is_store = statics.is_store
    is_mem = [load or store for load, store in zip(is_load, is_store)]
    fu = [_FU_MEM if mem else _FU_BRANCH if branch
          else _FU_BY_OPCODE.get(opcode, _FU_ALU)
          for mem, branch, opcode in zip(is_mem, statics.is_branch,
                                         statics.opcode)]
    if elim is None:
        slot_base = slot_tag = [None] * len(statics)
    else:
        slot_base = [base if eligible or (store and eliminate_stores)
                     else None
                     for base, eligible, store in zip(
                         elim.slot_base, statics.eligible, is_store)]
        slot_tag = elim.slot_tag
    return list(zip([instruction.pc
                     for instruction in statics.program.instructions],
                    statics.dest, statics.src1, statics.src2, is_load,
                    is_store, is_mem, fu, slot_base, slot_tag))


class ReferenceSimulator:
    """Trace-driven out-of-order timing simulation of one run."""

    def __init__(self, trace: Trace, config: MachineConfig = None,
                 analysis: DeadnessAnalysis = None):
        self.trace = trace
        self.config = config if config is not None else default_config()
        if analysis is None:
            analysis = analyze_deadness(trace)
        self.analysis = analysis
        self.statics = analysis.statics
        self.stats = PipelineStats()
        self.l1d = build_hierarchy(self.config)
        self.elimination: Optional[EliminationEngine] = None
        if self.config.eliminate:
            self.elimination = EliminationEngine(self.config, analysis)
        self._mispredict, self._ends_group = control_flags(analysis,
                                                           self.config)
        #: cycle-sampled telemetry; None (the default) costs one
        #: ``is not None`` test per cycle in the main loop.
        self.timeline = new_timeline()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 50_000_000) -> PipelineResult:
        trace = self.trace
        config = self.config
        stats = self.stats
        statics = self.statics
        addrs = trace.addrs
        static_idx = trace.static_indices()
        n = len(trace.pcs)

        elim = self.elimination
        decoded = _decode_statics(statics, elim, config.eliminate_stores)
        s_cond = statics.is_cond_branch
        latencies = (config.alu_latency, config.mul_latency,
                     config.div_latency, config.agen_latency,
                     config.branch_latency)
        mispredict_flags = self._mispredict
        ends_group = self._ends_group
        use_replay = config.recovery_mode == "replay"
        timeline = self.timeline
        l1d_access = self.l1d.access

        # The dead predictor as the core sees it: the table, the slot
        # inputs (per-static fields in ``decoded``, per-dynamic paths)
        # and the recovery state.  Lookup and training are inline below.
        if elim is not None:
            predictor = elim.predictor
            tags = predictor.tags
            confs = predictor.confs
            threshold = predictor.threshold
            conf_max = predictor.conf_max
            path_shift = predictor.path_shift
            lookup_paths = elim.predicted_path
            train_paths = elim.actual_path
            dead_labels = elim.dead_labels
            # Per static: the slot base commit trains at, or None.
            train_base = [static[8] for static in decoded]
            train_tag = elim.slot_tag
            blacklist = elim.blacklist
            strikes = elim.strikes
            max_strikes = elim.max_strikes
            note_success = elim.note_success

        # Rename state: merged physical register file.
        rat: List[object] = list(range(_NUM_ARCH))
        # The replay reserve is additional storage brought by the
        # elimination hardware itself; rename never sees it, so the
        # baseline and elimination configurations expose identical
        # renaming headroom.
        preg_reserve = (config.replay_reserve_pregs
                        if config.eliminate else 0)
        total_pregs = config.phys_regs + preg_reserve
        free_list = deque(range(_NUM_ARCH, total_pregs))
        ready_at = [0] * total_pregs

        rob: deque = deque()
        iq: List[InFlight] = []
        lsq_used = 0
        # The fetch buffer is always the contiguous trace window
        # [fq_head, fq_tail): fetch appends at the tail, rename
        # consumes at the head, a flush collapses both to the refetch
        # point.  Two ints replace the old per-instruction deque.
        fq_head = 0
        fq_tail = 0
        fetch_buffer_cap = 3 * config.fetch_width

        fetch_resume = 0
        rename_blocked_until = 0
        committed = 0
        seq = 0
        cycle = 0

        fu_limits = (config.alu_units, config.mul_units, config.div_units,
                     config.mem_ports, config.branch_units)

        # Hot per-cycle config reads as locals (dataclass attribute
        # access is a dict lookup per read; the cycle loop makes
        # several per instruction).
        commit_width = config.commit_width
        issue_width = config.issue_width
        rename_width = config.rename_width
        fetch_width = config.fetch_width
        rob_size = config.rob_size
        iq_size = config.iq_size
        lsq_size = config.lsq_size
        rf_read_ports = config.rf_read_ports
        verify_timeout = config.verify_timeout
        redirect_penalty = config.redirect_penalty

        # Hot event counters live in locals and are added to ``stats``
        # at the end; the recovery paths count on ``stats`` directly.
        preg_allocs = preg_frees = rf_reads = rf_writes = 0
        dcache_accesses = branches = branch_mispredicts = 0
        eliminated_count = elim_predictions = verify_stalls = 0
        stalls_preg = stalls_iq = stalls_rob = stalls_lsq = 0

        while committed < n:
            if cycle >= max_cycles:
                raise RuntimeError("simulation did not finish in %d cycles"
                                   % max_cycles)

            # ---- commit ----
            commits = 0
            while rob and commits < commit_width:
                head = rob[0]
                if head.eliminated:
                    if not head.commit_ready():
                        verify_stalls += 1
                        head.stall_cycles += 1
                        if head.stall_cycles > verify_timeout:
                            stats.timeout_recoveries += 1
                            chain = self._collect_chain(head)
                            new_lsq = None
                            if use_replay:
                                new_lsq = self._try_replay(
                                    chain, iq, rat, free_list, ready_at,
                                    lsq_used)
                            if new_lsq is not None:
                                lsq_used = new_lsq
                                rename_blocked_until = max(
                                    rename_blocked_until,
                                    cycle + config.replay_penalty)
                            else:
                                self._flush(chain[0], rob, iq, rat,
                                            free_list)
                                fq_head = fq_tail = chain[0].tidx
                                fetch_resume = cycle + \
                                    config.recovery_penalty
                                lsq_used = self._recount_lsq(rob)
                        break
                elif head.done_at > cycle:
                    break
                elif head.is_store:
                    dcache_accesses += 1
                    l1d_access(addrs[head.tidx])
                    lsq_used -= 1
                elif head.is_load:
                    lsq_used -= 1
                rob.popleft()
                head.committed = True
                if head.arch_dest:
                    old = head.old_preg
                    if old.__class__ is int:
                        free_list.append(old)
                        preg_frees += 1
                    # Token old mapping: the eliminated producer had no
                    # physical register -- a saved allocation and free.
                # Instructions that forced a recovery already trained
                # "live" there; training them dead again at commit
                # would re-arm the same costly prediction.
                if elim is not None and not head.recovered:
                    if head.eliminated:
                        note_success(head.pc)
                    base = train_base[head.sidx]
                    if base is not None:
                        tidx = head.tidx
                        slot = base ^ (train_paths[tidx] << path_shift)
                        tag = train_tag[head.sidx]
                        if tags[slot] != tag:
                            if dead_labels[tidx]:
                                tags[slot] = tag
                                confs[slot] = 1
                        elif dead_labels[tidx]:
                            if confs[slot] < conf_max:
                                confs[slot] += 1
                        else:
                            confs[slot] = 0
                committed += 1
                commits += 1
                if elim is not None and not committed & 1023:
                    elim.decay_strikes()
            if committed >= n:
                stats.cycles = cycle + 1
                break

            # ---- issue ----
            issued = 0
            if iq:
                fu_used = [0, 0, 0, 0, 0]
                rf_reads_left = rf_read_ports
                remaining: List[InFlight] = []
                for entry in iq:
                    for preg in entry.srcs:
                        if ready_at[preg] > cycle:
                            remaining.append(entry)
                            break
                    else:
                        fu = entry.fu
                        reads = len(entry.srcs)
                        if (issued >= issue_width
                                or fu_used[fu] >= fu_limits[fu]
                                or reads > rf_reads_left):
                            remaining.append(entry)
                            continue
                        fu_used[fu] += 1
                        rf_reads_left -= reads
                        rf_reads += reads
                        issued += 1
                        latency = latencies[fu]
                        if entry.is_load:
                            dcache_accesses += 1
                            latency += l1d_access(addrs[entry.tidx])
                        done_at = entry.done_at = cycle + latency
                        if entry.new_preg is not None:
                            ready_at[entry.new_preg] = done_at
                            rf_writes += 1
                        if entry.mispredict:
                            fetch_resume = done_at + redirect_penalty
                iq = remaining

            # ---- rename / dispatch ----
            renamed = 0
            flush_fired = False
            while (renamed < rename_width and fq_head < fq_tail
                   and cycle >= rename_blocked_until):
                if len(rob) >= rob_size:
                    stalls_rob += 1
                    break
                tidx = fq_head
                sidx = static_idx[tidx]
                (pc, dest, src1, src2, is_load, is_store, is_mem, fu,
                 base, tag) = decoded[sidx]

                # The dead-predictor lookup comes before the stall
                # checks: a stalled instruction is predicted again on
                # its next rename attempt, and each attempt counts.
                eliminated = False
                if base is not None:
                    elim_predictions += 1
                    if tidx not in blacklist and \
                            strikes.get(pc, 0) < max_strikes:
                        slot = base ^ (lookup_paths[tidx] << path_shift)
                        eliminated = (tags[slot] == tag
                                      and confs[slot] >= threshold)

                if not eliminated:
                    if len(iq) >= iq_size:
                        stalls_iq += 1
                        break
                    if is_mem and lsq_used >= lsq_size:
                        stalls_lsq += 1
                        break
                    if dest and len(free_list) <= preg_reserve:
                        stalls_preg += 1
                        break

                # Read source mappings.  A live consumer finding a
                # squashed token is the dead-misprediction detector.
                srcs: List[int] = []
                src_tokens: List[InFlight] = []
                dead_producer: Optional[InFlight] = None
                for src in (src1, src2):
                    if src <= 0:
                        continue
                    mapping = rat[src]
                    if mapping.__class__ is int:
                        srcs.append(mapping)
                    elif mapping.committed:
                        # Verified-dead producer re-exposed by a flush:
                        # this consumer is itself dead, the value is
                        # architectural garbage (sound, see module
                        # docstring).
                        continue
                    elif eliminated:
                        src_tokens.append(mapping)
                    else:
                        dead_producer = mapping
                        break

                if dead_producer is not None:
                    stats.reader_recoveries += 1
                    chain = self._collect_chain(dead_producer)
                    new_lsq = None
                    if use_replay:
                        new_lsq = self._try_replay(chain, iq, rat,
                                                   free_list, ready_at,
                                                   lsq_used)
                    if new_lsq is not None:
                        lsq_used = new_lsq
                        rename_blocked_until = cycle + \
                            config.replay_penalty
                        # The consumer renames once the stall expires.
                        break
                    self._flush(chain[0], rob, iq, rat, free_list)
                    fq_head = fq_tail = chain[0].tidx
                    fetch_resume = cycle + config.recovery_penalty
                    lsq_used = self._recount_lsq(rob)
                    flush_fired = True
                    break

                old = new_preg = None
                if dest:
                    old = rat[dest]
                    if not eliminated:
                        new_preg = free_list.popleft()
                        ready_at[new_preg] = _INF
                        preg_allocs += 1
                entry = InFlight(seq, tidx, sidx, pc, fu, srcs, src_tokens,
                                 dest, old, new_preg, is_load, is_store,
                                 mispredict_flags[tidx], eliminated)
                seq += 1

                if dest:
                    if old.__class__ is InFlight and not old.committed \
                            and old.eliminated and not old.verified:
                        # Overwriting a squashed mapping verifies that
                        # the eliminated producer really was dead.
                        old.verified = True
                        old.verified_by = entry
                        entry.verifies = old
                    rat[dest] = entry if eliminated else new_preg
                elif eliminated and is_store:
                    # An eliminated store poisons no rename mapping; its
                    # deadness is verified by the overwriting store in
                    # the memory-order queue, which this timing model
                    # treats as immediate.
                    entry.verified = True

                if eliminated:
                    eliminated_count += 1
                    entry.done_at = cycle  # never executes
                    for token in src_tokens:
                        token.token_readers.append(entry)
                else:
                    iq.append(entry)
                    if is_mem:
                        lsq_used += 1
                rob.append(entry)
                fq_head += 1
                renamed += 1
            if flush_fired:
                cycle += 1
                continue

            # ---- fetch ----
            if cycle >= fetch_resume and fq_tail < n:
                fetched = 0
                while (fetched < fetch_width
                       and fq_tail - fq_head < fetch_buffer_cap
                       and fq_tail < n):
                    tidx = fq_tail
                    fq_tail += 1
                    fetched += 1
                    if s_cond[static_idx[tidx]]:
                        branches += 1
                    if mispredict_flags[tidx]:
                        branch_mispredicts += 1
                        fetch_resume = _INF  # until it resolves
                        break
                    if ends_group[tidx]:
                        break

            if timeline is not None and cycle >= timeline.next_due:
                timeline.record(cycle, len(rob), len(iq), lsq_used,
                                fq_tail - fq_head, renamed, issued,
                                commits, committed, eliminated_count,
                                stats.reader_recoveries
                                + stats.timeout_recoveries, fq_tail)
            cycle += 1

        stats.committed = committed
        stats.preg_allocs += preg_allocs
        stats.preg_frees += preg_frees
        stats.rf_reads += rf_reads
        stats.rf_writes += rf_writes
        stats.dcache_accesses += dcache_accesses
        stats.branches += branches
        stats.branch_mispredicts += branch_mispredicts
        stats.eliminated += eliminated_count
        stats.elim_predictions += elim_predictions
        stats.verify_stall_cycles += verify_stalls
        stats.rename_stalls_preg += stalls_preg
        stats.rename_stalls_iq += stalls_iq
        stats.rename_stalls_rob += stalls_rob
        stats.rename_stalls_lsq += stalls_lsq
        stats.dcache_misses = self.l1d.stats.misses
        stats.recoveries = (stats.reader_recoveries
                            + stats.timeout_recoveries)
        result = PipelineResult(config=self.config, stats=stats)
        result.l1d_misses = self.l1d.stats.misses
        if self.l1d.parent is not None:
            result.l2_misses = self.l1d.parent.stats.misses
        if timeline is not None:
            # A closing sample so the timeline always reaches the end
            # of the run, whatever the sampling grid.
            timeline.record(stats.cycles - 1, len(rob), len(iq),
                            lsq_used, fq_tail - fq_head, 0, 0, 0,
                            committed, stats.eliminated,
                            stats.recoveries, fq_tail)
            result.timeline = timeline.to_dict()
        return result

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _collect_chain(self, target: InFlight) -> List[InFlight]:
        """The eliminated instructions that must re-execute to
        materialize *target*'s value: target plus, transitively, every
        still-eliminated, uncommitted producer it read a token from.
        Sorted oldest first; every member is in the ROB (guaranteed by
        the commit gating, see module docstring)."""
        chain: List[InFlight] = []
        seen = set()

        def visit(entry: InFlight) -> None:
            if id(entry) in seen:
                return
            seen.add(id(entry))
            for token in entry.src_tokens:
                if token.committed or not token.eliminated:
                    continue
                visit(token)
            chain.append(entry)

        visit(target)
        chain.sort(key=lambda entry: entry.seq)
        return chain

    def _try_replay(self, chain: List[InFlight], iq: List[InFlight],
                    rat: List[object], free_list: deque,
                    ready_at: List[int], lsq_used: int) -> Optional[int]:
        """Re-dispatch every chain member from the ROB; return the new
        LSQ occupancy, or None when resources do not allow it (the
        caller falls back to a flush)."""
        stats = self.stats
        pregs_needed = sum(1 for entry in chain if entry.arch_dest)
        if pregs_needed > len(free_list):
            # Without registers the values cannot be materialized;
            # the caller falls back to a flush (which frees plenty).
            return None
        # Replay entries may transiently overflow the IQ/LSQ: they
        # re-enter from the ROB while rename is stalled for
        # replay_penalty cycles, so the structural overshoot is bounded
        # by the chain length and drains immediately.

        for entry in chain:
            entry.eliminated = False
            entry.verified = False
            entry.done_at = _INF
            if entry.arch_dest:
                preg = free_list.popleft()
                entry.new_preg = preg
                ready_at[preg] = _INF
                stats.preg_allocs += 1
                if rat[entry.arch_dest] is entry:
                    rat[entry.arch_dest] = preg
                elif entry.verified_by is not None and \
                        entry.verified_by.old_preg is entry:
                    # Already renamed over: hand the register to the
                    # overwriter's old-mapping slot so it is freed at
                    # the overwriter's commit (no leak).
                    entry.verified_by.old_preg = preg
            # Wire up values from producers replayed in this chain.
            for token in entry.src_tokens:
                if token.new_preg is not None:
                    entry.srcs.append(token.new_preg)
            entry.src_tokens = []
            iq.append(entry)
            if entry.is_load or entry.is_store:
                lsq_used += 1
            stats.replayed += 1
            entry.recovered = True
            if self.elimination is not None:
                self.elimination.note_recovery(entry.tidx, entry.pc)
        return lsq_used

    def _flush(self, target: InFlight, rob: deque, iq: List[InFlight],
               rat: List[object], free_list: deque) -> None:
        """Squash from the ROB tail back to and including *target*,
        undoing rename mappings in reverse order; the caller resets the
        fetch stream to the target's trace index."""
        stats = self.stats
        stats.flush_recoveries += 1
        while rob:
            entry = rob[-1]
            if entry.seq < target.seq:
                break
            rob.pop()
            entry.squashed = True
            stats.squashed += 1
            if entry.arch_dest:
                rat[entry.arch_dest] = entry.old_preg
                if entry.new_preg is not None:
                    free_list.append(entry.new_preg)
                    entry.new_preg = None
            if entry.verifies is not None:
                entry.verifies.verified = False
                entry.verifies = None
        # Every IQ entry is in the ROB, so the walk above squashed the
        # younger ones; drop them from the issue scan.
        iq[:] = [entry for entry in iq if entry.seq < target.seq]
        target.recovered = True
        if self.elimination is not None:
            self.elimination.note_recovery(target.tidx, target.pc)

    @staticmethod
    def _recount_lsq(rob: deque) -> int:
        return sum(1 for entry in rob
                   if (entry.is_load or entry.is_store)
                   and not entry.eliminated)
