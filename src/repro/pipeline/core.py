"""The out-of-order core: cycle loop, rename, issue, commit, recovery.

One :class:`Simulator` instance runs one trace on one configuration.
Stage order within a cycle is commit -> issue -> rename -> fetch, so a
resource freed at commit is available to rename in the same cycle
(idealized but consistent across configurations).

The front end is per-instruction: fetch walks the trace window up to
``fetch_width`` instructions a cycle, stopping at the first
actual-taken control transfer or mispredicted branch (the gshare/RAS
predictions are precomputed by :func:`control_flags`, once per analysis
and branch-predictor setting, and shared by every run of a sweep), and
rename reads one decoded tuple of static facts per instruction.
Decode does not affect any elimination result: the paper's mechanism
acts at rename.

The dead predictor is read as columns (:mod:`repro.pipeline.elimination`):
rename checks the blacklist and the strikes, then compares one table
entry; commit trains that table inline.  The lookup precedes the
IQ/LSQ/register stall checks, so an instruction that stalls is
predicted again on each rename attempt, and ``elim_predictions`` counts
every attempt.  Hot event counters are locals, added to
:class:`PipelineStats` when the loop ends; telemetry samples read the
locals.

Every in-flight instruction is named by its trace index.  The trace is
the committed stream, so the ROB is the trace window
``[committed, fq_head)`` and an index is unique while its instruction
is in flight; a flush squashes a suffix of the window and the refetch
renames those indices afresh.  Per-instance state lives in per-run
columns indexed by trace index (see :meth:`Simulator.run`).  The
physical register file is one free count: no statistic reads which
register an instruction holds, and a register is freed only when its
overwriter commits, after every reader has issued, so a source is
ready exactly when its producer's ``done_at`` has passed.

Rename-map conventions: ``rat[arch]`` holds the trace index of the
architectural register's current producer, or the trace length ``n``
for its initial value (ready at cycle 0, holding a register).  A
producer that holds no register is *eliminated* (predicted dead): its
index in the map is the paper's "squashed" token.  A non-eliminated
instruction renaming a source to a token is the misprediction
detector; an instruction renaming its *destination* over a token is
the verifier.

Soundness invariants of the elimination machinery (DESIGN.md §5.6):

* An eliminated instruction may only commit once **verified**: its
  destination has been renamed over by a younger instruction *and*
  every eliminated instruction that renamed a source to its token is
  itself verified (squashed readers leave the token's reader list).
  An unverified instruction at the ROB head stalls, and after
  ``verify_timeout`` cycles is conservatively recovered.
* Recovery is by **replay** (default): the squashed instruction is
  still in the ROB with its source producers — whose registers cannot
  have been freed while it is in flight — so it takes a register and
  re-dispatches, together with the transitive chain of eliminated
  producers it read from.  When the free count cannot cover the chain,
  recovery falls back to a **flush**: a walk from the window's tail
  restores rename mappings back to the oldest chain member, which is
  then refetched with its prediction suppressed.
* A token whose producer already *committed* (necessarily verified
  dead) can be re-exposed in the RAT by a flush that rolls back past
  the overwriter.  Any instruction subsequently renaming that token as
  a source is itself dynamically dead (stores cannot be — a live read
  would have prevented the verified commit), so the source is treated
  as ready garbage rather than triggering an impossible recovery.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.liveness import DeadnessAnalysis, analyze_deadness
from repro.analysis.statics import StaticTable
from repro.emulator.trace import Trace
from repro.isa.instructions import Opcode
from repro.obs import new_timeline
from repro.pipeline.cache import build_hierarchy
from repro.pipeline.config import MachineConfig, default_config
from repro.pipeline.elimination import EliminationEngine
from repro.pipeline.stats import PipelineStats
from repro.predictors.branch import GshareBranchPredictor, ReturnAddressStack

_INF = 1 << 60

# Function-unit classes.
_FU_ALU, _FU_MUL, _FU_DIV, _FU_MEM, _FU_BRANCH = range(5)

_NUM_ARCH = 32


@dataclass
class PipelineResult:
    """Everything one simulation run produced."""

    config: MachineConfig
    stats: PipelineStats
    l1d_misses: int = 0
    l2_misses: int = 0
    #: cycle-sampled pipeline timeline (``Timeline.to_dict()``) when
    #: telemetry was enabled for the run, else None.  Plain data so the
    #: cached artifact carries its telemetry across reloads.
    timeline: Optional[Dict[str, object]] = None


#: Function-unit class by opcode, for the classes that depend on it.
_FU_BY_OPCODE = {Opcode.MUL: _FU_MUL, Opcode.MULH: _FU_MUL,
                 Opcode.DIV: _FU_DIV, Opcode.REM: _FU_DIV}


def _decode_statics(statics: StaticTable,
                    elim: Optional[EliminationEngine],
                    eliminate_stores: bool) -> List[tuple]:
    """One tuple of rename-time facts per static instruction:
    ``(pc, dest, sources, is_load, is_store, is_mem, fu, slot_base,
    slot_tag)``, where ``sources`` holds the nonzero source registers.
    ``slot_base`` is None where rename does not consult the dead
    predictor: everywhere without elimination, else everywhere but
    eligible instructions and (with ``eliminate_stores``) stores."""
    is_load = statics.is_load
    is_store = statics.is_store
    is_mem = [load or store for load, store in zip(is_load, is_store)]
    fu = [_FU_MEM if mem else _FU_BRANCH if branch
          else _FU_BY_OPCODE.get(opcode, _FU_ALU)
          for mem, branch, opcode in zip(is_mem, statics.is_branch,
                                         statics.opcode)]
    sources = [tuple(src for src in pair if src > 0)
               for pair in zip(statics.src1, statics.src2)]
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
                    statics.dest, sources, is_load, is_store, is_mem, fu,
                    slot_base, slot_tag))


def _control_flags(trace: Trace, statics: StaticTable,
                   config: MachineConfig) -> Tuple[bytes, bytes]:
    """Precompute, per dynamic instruction, whether it mispredicts and
    whether it ends the fetch group (actual-taken control transfer)."""
    gshare = GshareBranchPredictor(config.gshare_entries,
                                   config.gshare_history)
    ras = ReturnAddressStack(config.ras_depth)
    pcs = trace.pcs
    taken = trace.taken
    n = len(pcs)
    mispredict = bytearray(n)
    ends_group = bytearray(n)
    is_cond = statics.is_cond_branch
    opcode = statics.opcode
    sidx = trace.static_indices()
    for i in range(n):
        si = sidx[i]
        if is_cond[si]:
            outcome = taken[i]
            predicted = gshare.predict_and_update(pcs[i], outcome)
            mispredict[i] = predicted != outcome
            ends_group[i] = outcome
        elif statics.is_branch[si]:
            ends_group[i] = True
            op = opcode[si]
            if op == Opcode.JAL:
                ras.push(pcs[i] + 4)
            elif op == Opcode.JALR:
                actual_target = pcs[i + 1] if i + 1 < n else -1
                mispredict[i] = not ras.predict_return(actual_target)
    return bytes(mispredict), bytes(ends_group)


def control_flags(analysis: DeadnessAnalysis,
                  config: MachineConfig) -> Tuple[bytes, bytes]:
    """:func:`_control_flags` of *analysis*'s trace, memoized on
    *analysis* per (gshare entries, gshare history, RAS depth) as
    ``_control_flag_columns``: every run of a sweep over one trace
    shares the front end's branch predictions."""
    key = (config.gshare_entries, config.gshare_history, config.ras_depth)
    memo = getattr(analysis, "_control_flag_columns", None)
    if memo is None:
        memo = analysis._control_flag_columns = {}
    flags = memo.get(key)
    if flags is None:
        flags = memo[key] = _control_flags(analysis.trace,
                                           analysis.statics, config)
    return flags


class Simulator:
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
        static_idx = self._static_idx = trace.static_indices()
        n = len(trace.pcs)

        elim = self.elimination
        decoded = self._decoded = _decode_statics(statics, elim,
                                                  config.eliminate_stores)
        s_cond = statics.is_cond_branch
        latencies = (config.alu_latency, config.mul_latency,
                     config.div_latency, config.agen_latency,
                     config.branch_latency)
        mispredict_flags = self._mispredict
        ends_group = self._ends_group
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
            blacklist = elim.blacklist
            strikes = elim.strikes
            max_strikes = elim.max_strikes
            note_success = elim.note_success

        # Per-instance state, indexed by trace index (index n is the
        # initial value of every architectural register).  A flush
        # resets the squashed indices; rename writes only what differs
        # from that reset state.
        #: completion cycle: _INF until issued
        done_at = self._done_at = [_INF] * (n + 1)
        done_at[n] = 0
        #: predicted dead and not (yet) replayed
        eliminated = self._eliminated = bytearray(n + 1)
        #: eliminated and overwritten (read only while eliminated)
        verified = self._verified = bytearray(n + 1)
        #: holds a physical register (live, or replayed, with a dest)
        holds = self._holds = bytearray(n + 1)
        holds[n] = 1
        #: replayed: trained "live" at recovery, not again at commit
        recovered = self._recovered = bytearray(n + 1)
        #: the producer this instruction's destination renamed over
        old_of = self._old_of = array("l", [n]) * n
        # In-flight eliminated instances only (commit, replay and
        # flush drop their entries):
        #: eliminated instance -> (register sources, token sources)
        token_srcs = self._token_srcs = {}
        #: eliminated producer -> the eliminated readers of its token
        token_readers = self._token_readers = {}
        #: eliminated ROB head -> cycles it waited for verification
        stall_cycles = self._stall_cycles = {}

        rat = [n] * _NUM_ARCH
        # The replay reserve is additional storage brought by the
        # elimination hardware itself; rename never sees it, so the
        # baseline and elimination configurations expose identical
        # renaming headroom.
        preg_reserve = (config.replay_reserve_pregs
                        if config.eliminate else 0)
        free = config.phys_regs + preg_reserve - _NUM_ARCH

        # IQ entries: (sources, tidx, fu, is_load, dest), oldest first.
        iq: List[tuple] = []
        lsq_used = 0
        # The fetch buffer is the trace window [fq_head, fq_tail) and
        # the ROB the window [committed, fq_head): rename moves an
        # instruction from one to the other, commit retires the oldest,
        # a flush collapses both ends to the refetch point.
        fq_head = 0
        fq_tail = 0
        fetch_buffer_cap = 3 * config.fetch_width

        fetch_resume = 0
        rename_blocked_until = 0
        committed = 0
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
        replay_penalty = config.replay_penalty
        recovery_penalty = config.recovery_penalty

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
            while committed < fq_head and commits < commit_width:
                tidx = committed
                if eliminated[tidx]:
                    if not self._commit_ready(tidx):
                        verify_stalls += 1
                        stalls = stall_cycles[tidx] = \
                            stall_cycles.get(tidx, 0) + 1
                        if stalls > verify_timeout:
                            stats.timeout_recoveries += 1
                            free, lsq_used, refetch = self._recover(
                                tidx, iq, rat, free, lsq_used, committed,
                                fq_head)
                            if refetch < 0:
                                rename_blocked_until = max(
                                    rename_blocked_until,
                                    cycle + replay_penalty)
                            else:
                                fq_head = fq_tail = refetch
                                fetch_resume = cycle + recovery_penalty
                        break
                    pc, dest, _, _, _, _, _, base, tag = \
                        decoded[static_idx[tidx]]
                    del token_srcs[tidx]
                    token_readers.pop(tidx, None)
                    stall_cycles.pop(tidx, None)
                elif done_at[tidx] > cycle:
                    break
                else:
                    # Still ready for every later reader, and the column
                    # keeps no int object alive per committed instance.
                    done_at[tidx] = 0
                    pc, dest, _, is_load, is_store, _, _, base, tag = \
                        decoded[static_idx[tidx]]
                    if is_store:
                        dcache_accesses += 1
                        l1d_access(addrs[tidx])
                        lsq_used -= 1
                    elif is_load:
                        lsq_used -= 1
                committed += 1
                # An eliminated producer held no register: an
                # overwritten token is a saved allocation and free.
                if dest and holds[old_of[tidx]]:
                    free += 1
                    preg_frees += 1
                # Instructions that forced a recovery already trained
                # "live" there; training them dead again at commit
                # would re-arm the same costly prediction.
                if elim is not None and not recovered[tidx]:
                    if eliminated[tidx]:
                        note_success(pc)
                    if base is not None:
                        slot = base ^ (train_paths[tidx] << path_shift)
                        if tags[slot] != tag:
                            if dead_labels[tidx]:
                                tags[slot] = tag
                                confs[slot] = 1
                        elif dead_labels[tidx]:
                            if confs[slot] < conf_max:
                                confs[slot] += 1
                        else:
                            confs[slot] = 0
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
                remaining: List[tuple] = []
                for entry in iq:
                    for producer in entry[0]:
                        if done_at[producer] > cycle:
                            remaining.append(entry)
                            break
                    else:
                        srcs, tidx, fu, is_load, dest = entry
                        reads = len(srcs)
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
                        if is_load:
                            dcache_accesses += 1
                            latency += l1d_access(addrs[tidx])
                        done = done_at[tidx] = cycle + latency
                        if dest:
                            rf_writes += 1
                        if mispredict_flags[tidx]:
                            fetch_resume = done + redirect_penalty
                iq = remaining

            # ---- rename / dispatch ----
            renamed = 0
            flush_fired = False
            while (renamed < rename_width and fq_head < fq_tail
                   and cycle >= rename_blocked_until):
                if fq_head - committed >= rob_size:
                    stalls_rob += 1
                    break
                tidx = fq_head
                (pc, dest, sources, is_load, is_store, is_mem, fu,
                 base, tag) = decoded[static_idx[tidx]]

                # The dead-predictor lookup comes before the stall
                # checks: a stalled instruction is predicted again on
                # its next rename attempt, and each attempt counts.
                dead = False
                if base is not None:
                    elim_predictions += 1
                    if tidx not in blacklist and \
                            strikes.get(pc, 0) < max_strikes:
                        slot = base ^ (lookup_paths[tidx] << path_shift)
                        dead = (tags[slot] == tag
                                and confs[slot] >= threshold)

                if not dead:
                    if len(iq) >= iq_size:
                        stalls_iq += 1
                        break
                    if is_mem and lsq_used >= lsq_size:
                        stalls_lsq += 1
                        break
                    if dest and free <= preg_reserve:
                        stalls_preg += 1
                        break

                # Read source mappings.  A live consumer finding a
                # squashed token is the dead-misprediction detector.
                srcs: List[int] = []
                tokens: List[int] = []
                dead_producer = -1
                for src in sources:
                    producer = rat[src]
                    if holds[producer]:
                        srcs.append(producer)
                    elif producer < committed:
                        # Verified-dead producer re-exposed by a flush:
                        # this consumer is itself dead, the value is
                        # architectural garbage (sound, see module
                        # docstring).
                        continue
                    elif dead:
                        tokens.append(producer)
                    else:
                        dead_producer = producer
                        break

                if dead_producer >= 0:
                    stats.reader_recoveries += 1
                    free, lsq_used, refetch = self._recover(
                        dead_producer, iq, rat, free, lsq_used, committed,
                        fq_head)
                    if refetch < 0:
                        # The consumer renames once the stall expires.
                        rename_blocked_until = cycle + replay_penalty
                        break
                    fq_head = fq_tail = refetch
                    fetch_resume = cycle + recovery_penalty
                    flush_fired = True
                    break

                if dest:
                    old = rat[dest]
                    old_of[tidx] = old
                    if eliminated[old] and old >= committed \
                            and not verified[old]:
                        # Overwriting a squashed mapping verifies that
                        # the eliminated producer really was dead.
                        verified[old] = 1
                    rat[dest] = tidx

                if dead:
                    eliminated_count += 1
                    eliminated[tidx] = 1
                    # An eliminated store poisons no rename mapping; its
                    # deadness is verified by the overwriting store in
                    # the memory-order queue, which this timing model
                    # treats as immediate.
                    verified[tidx] = is_store and not dest
                    token_srcs[tidx] = (srcs, tokens)
                    for token in tokens:
                        token_readers.setdefault(token, []).append(tidx)
                else:
                    if dest:
                        holds[tidx] = 1
                        free -= 1
                        preg_allocs += 1
                    iq.append((srcs, tidx, fu, is_load, dest))
                    if is_mem:
                        lsq_used += 1
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
                timeline.record(cycle, fq_head - committed, len(iq),
                                lsq_used, fq_tail - fq_head, renamed,
                                issued, commits, committed,
                                eliminated_count,
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
            timeline.record(stats.cycles - 1, fq_head - committed,
                            len(iq), lsq_used, fq_tail - fq_head, 0, 0, 0,
                            committed, stats.eliminated,
                            stats.recoveries, fq_tail)
            result.timeline = timeline.to_dict()
        return result

    # ------------------------------------------------------------------
    # Verification and recovery
    # ------------------------------------------------------------------

    def _commit_ready(self, tidx: int) -> bool:
        """May this eliminated instruction commit?  Verified, and every
        eliminated reader of its token verified too."""
        verified = self._verified
        if not verified[tidx]:
            return False
        eliminated = self._eliminated
        for reader in self._token_readers.get(tidx, ()):
            if eliminated[reader] and not verified[reader]:
                return False
        return True

    def _drop_reader(self, reader: int, tokens: List[int]) -> None:
        """*reader* no longer reads *tokens* (it replayed or was
        squashed); a committed token's reader list is already gone."""
        for token in tokens:
            readers = self._token_readers.get(token)
            if readers is not None:
                readers.remove(reader)

    def _recover(self, target: int, iq: List[tuple], rat: List[int],
                 free: int, lsq_used: int, committed: int,
                 fq_head: int) -> Tuple[int, int, int]:
        """Materialize eliminated *target*'s value: replay its chain,
        or (flush mode, or too few free registers) flush back to the
        chain's oldest member.  Returns the new free count and LSQ
        occupancy, and the refetch point of a flush (-1 after a
        replay)."""
        chain = self._collect_chain(target, committed)
        if self.config.recovery_mode == "replay":
            needed = sum(1 for tidx in chain
                         if self._decoded[self._static_idx[tidx]][1])
            # Without registers the values cannot be materialized; a
            # flush frees plenty.
            if needed <= free:
                return self._replay(chain, iq, free, lsq_used) + (-1,)
        return self._flush(chain[0], iq, rat, free, lsq_used, committed,
                           fq_head) + (chain[0],)

    def _collect_chain(self, target: int, committed: int) -> List[int]:
        """The eliminated instructions that must re-execute to
        materialize *target*'s value: target plus, transitively, every
        still-eliminated, uncommitted producer it read a token from.
        Oldest first; every member is in the ROB (guaranteed by the
        commit gating, see module docstring)."""
        eliminated = self._eliminated
        token_srcs = self._token_srcs
        chain: List[int] = []
        seen = set()

        def visit(tidx: int) -> None:
            if tidx in seen:
                return
            seen.add(tidx)
            for token in token_srcs[tidx][1]:
                if token >= committed and eliminated[token]:
                    visit(token)
            chain.append(tidx)

        visit(target)
        chain.sort()
        return chain

    def _replay(self, chain: List[int], iq: List[tuple], free: int,
                lsq_used: int) -> Tuple[int, int]:
        """Re-dispatch every chain member from the ROB, each taking a
        register for its destination; returns the new free count and
        LSQ occupancy.  Replay entries may transiently overflow the
        IQ/LSQ: they re-enter from the ROB while rename is stalled for
        ``replay_penalty`` cycles, so the structural overshoot is
        bounded by the chain length and drains immediately."""
        stats = self.stats
        decoded = self._decoded
        holds = self._holds
        for tidx in chain:
            pc, dest, _, is_load, _, is_mem, fu = \
                decoded[self._static_idx[tidx]][:7]
            self._eliminated[tidx] = 0
            self._done_at[tidx] = _INF
            if dest:
                # The overwriter's commit frees this register.
                holds[tidx] = 1
                free -= 1
                stats.preg_allocs += 1
            # Values from producers replayed in this chain (or
            # earlier); a committed token stays garbage.
            srcs, tokens = self._token_srcs.pop(tidx)
            self._drop_reader(tidx, tokens)
            self._stall_cycles.pop(tidx, None)
            srcs = srcs + [token for token in tokens if holds[token]]
            iq.append((srcs, tidx, fu, is_load, dest))
            if is_mem:
                lsq_used += 1
            stats.replayed += 1
            self._recovered[tidx] = 1
            if self.elimination is not None:
                self.elimination.note_recovery(tidx, pc)
        return free, lsq_used

    def _flush(self, target: int, iq: List[tuple], rat: List[int],
               free: int, lsq_used: int, committed: int,
               fq_head: int) -> Tuple[int, int]:
        """Squash the window from its tail back to and including
        *target*, restoring rename mappings in reverse order and
        returning squashed registers; returns the new free count and
        LSQ occupancy.  The caller refetches from *target*."""
        stats = self.stats
        stats.flush_recoveries += 1
        decoded = self._decoded
        eliminated = self._eliminated
        holds = self._holds
        token_readers = self._token_readers
        for tidx in range(fq_head - 1, target - 1, -1):
            stats.squashed += 1
            _, dest, _, _, _, is_mem = decoded[self._static_idx[tidx]][:6]
            if dest:
                old = rat[dest] = self._old_of[tidx]
                if eliminated[old] and old >= committed:
                    # The squashed overwriter no longer verifies it.
                    self._verified[old] = 0
                if holds[tidx]:
                    free += 1
            if is_mem and not eliminated[tidx]:
                lsq_used -= 1
            sources = self._token_srcs.pop(tidx, None)
            if sources is not None:
                self._drop_reader(tidx, sources[1])
            token_readers.pop(tidx, None)
            self._stall_cycles.pop(tidx, None)
            eliminated[tidx] = holds[tidx] = self._recovered[tidx] = 0
            self._done_at[tidx] = _INF
        # Every IQ entry is in the ROB, so the walk above squashed the
        # younger ones; drop them from the issue scan.
        iq[:] = [entry for entry in iq if entry[1] < target]
        if self.elimination is not None:
            self.elimination.note_recovery(
                target, decoded[self._static_idx[target]][0])
        return free, lsq_used


def simulate(trace: Trace, config: MachineConfig = None,
             analysis: DeadnessAnalysis = None) -> PipelineResult:
    """Run *trace* through the timing model under *config*."""
    return Simulator(trace, config, analysis).run()
