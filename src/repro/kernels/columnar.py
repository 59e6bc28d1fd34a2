"""The ``columnar`` backend: NumPy array operations over the decoded
micro-op table.

Registered only when NumPy is importable (``HAVE_NUMPY``) — NumPy is
an *optional* dependency; without it the registry simply never offers
this backend and every consumer falls back to ``python``.

The backward deadness dataflow is inherently sequential (every label
depends on state mutated by younger instructions), so chasing it with
array ops cannot work.  Instead the work is *split*:

* a **minimal sequential loop** computes only what genuinely needs the
  backward state — the ``dead`` labels — over per-dynamic columns
  pre-gathered with :func:`numpy.take` (one C-level gather instead of
  a per-element double lookup, and no ``touched`` bookkeeping at all);
* everything that is a pure function of the labels is **vectorized**:

  - ``direct`` labels become per-register / per-word *interval
    queries* — a dead write is direct exactly when no instruction
    reads its register between it and its killer, which two
    ``searchsorted`` calls over a (register, position)-sorted read
    index answer for every victim at once (same trick over
    (word, position) keys for dead stores);
  - kill distances fall out of the same sorted write index (the
    killer of a dead write *is* its successor in the per-register
    write sequence);
  - per-static counters are ``numpy.bincount``;
  - the prediction stream is a mask / gather one-liner.

Results are canonicalized back to plain Python lists and scalars with
``.tolist()`` / ``int()`` so they are **byte-identical** (pickle-equal,
element types included) to the ``python`` reference — enforced by the
property suite and ``tests/test_kernels.py`` like every other backend.
"""

from __future__ import annotations

from typing import List, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via subprocess test
    np = None

from repro.isa.program import TEXT_BASE
from repro.kernels.base import (
    DeadnessColumns,
    DecodedTrace,
    FusedColumns,
    KernelBackend,
    KillColumns,
    PredictionStream,
    StaticCounts,
    canonical_kills,
)

#: True when the optional NumPy dependency is importable; the registry
#: in :mod:`repro.kernels` only registers the backend when it is.
HAVE_NUMPY = np is not None

_CACHE_ATTR = "_columnar_arrays"


class _Arrays:
    """NumPy views of one :class:`DecodedTrace`, cached on the decoded
    object so repeated kernel calls (sweeps, fused + stream pairs)
    convert the Python columns exactly once.

    With an attached artifact *bundle* (``trace.artifact_bundle``, see
    :mod:`repro.harness.artifacts`) the dynamic columns and the sorted
    read/write key indexes hydrate as **zero-copy** ``frombuffer``
    views of the mapped file instead of list conversions; only the
    per-static gathers still run (one C-level ``take`` each).
    """

    def __init__(self, decoded: DecodedTrace, bundle=None):
        trace = decoded.trace
        statics = decoded.statics
        self.n = len(decoded.sidx)
        if bundle is not None:
            self.sidx = bundle.array("sidx")
            self.pcs = bundle.array("pcs")
            self.taken = bundle.array("taken")
            self.word = (bundle.array("word") if bundle.has("word")
                         else np.asarray(trace.addrs,
                                         dtype=np.int64) & ~3)
        else:
            self.sidx = np.asarray(decoded.sidx, dtype=np.int64)
            self.pcs = np.asarray(trace.pcs, dtype=np.int64)
            self.taken = np.asarray(trace.taken, dtype=bool)
            self.word = np.asarray(trace.addrs, dtype=np.int64) & ~3
        self.dest = np.asarray(statics.dest,
                               dtype=np.int64)[self.sidx]
        self.src1 = np.asarray(statics.src1,
                               dtype=np.int64)[self.sidx]
        self.src2 = np.asarray(statics.src2,
                               dtype=np.int64)[self.sidx]
        self.side = np.asarray(statics.side_effect,
                               dtype=bool)[self.sidx]
        self.load = np.asarray(statics.is_load, dtype=bool)[self.sidx]
        self.store = np.asarray(statics.is_store,
                                dtype=bool)[self.sidx]
        self.byte = np.asarray(statics.is_byte, dtype=bool)[self.sidx]
        self.eligible = np.asarray(statics.eligible,
                                   dtype=bool)[self.sidx]
        self.cond = np.asarray(statics.is_cond_branch,
                               dtype=bool)[self.sidx]
        #: the attached artifact bundle, if any (read-only views)
        self.bundle = bundle
        #: plain-list mirrors for the sequential labeling loop (scalar
        #: indexing of ndarrays is slower than list indexing)
        self.lists = None
        #: sorted (register, position) keys of every register read and
        #: every register write; built on first deadness/kill query
        #: (or mapped straight from the bundle)
        self.read_keys = None
        self.write_keys = None
        #: provenance tags as integer codes (codes follow the sorted
        #: tag order, so grouping by ascending code yields the
        #: canonical sorted-tag ``by_provenance`` dict)
        self.tag_names = None
        self.tag_codes = None

    def loop_lists(self):
        if self.lists is None:
            self.lists = (self.dest.tolist(), self.src1.tolist(),
                          self.src2.tolist(), self.side.tolist(),
                          self.load.tolist(), self.store.tolist(),
                          self.byte.tolist(), self.word.tolist())
        return self.lists

    def reg_read_keys(self):
        """Every register read as a sorted ``reg * (n+1) + pos`` key
        (``searchsorted`` then answers "any read of reg r in positions
        (a, b]?" for a whole victim batch at once)."""
        if self.read_keys is None:
            if self.bundle is not None \
                    and self.bundle.has("read_keys"):
                self.read_keys = self.bundle.array("read_keys")
                return self.read_keys
            span = self.n + 1
            p1 = np.flatnonzero(self.src1 > 0)
            p2 = np.flatnonzero(self.src2 > 0)
            keys = np.concatenate((self.src1[p1] * span + p1,
                                   self.src2[p2] * span + p2))
            keys.sort()
            self.read_keys = keys
        return self.read_keys

    def reg_write_keys(self):
        """Every register write as a sorted ``reg * (n+1) + pos`` key
        plus the write positions/registers in that order."""
        if self.write_keys is None:
            bundle = self.bundle
            if bundle is not None and bundle.has("write_keys") \
                    and bundle.has("write_pos") \
                    and bundle.has("write_reg"):
                self.write_keys = (bundle.array("write_keys"),
                                   bundle.array("write_pos"),
                                   bundle.array("write_reg"))
                return self.write_keys
            span = self.n + 1
            pos = np.flatnonzero(self.dest > 0)
            reg = self.dest[pos]
            order = np.argsort(reg, kind="stable")
            pos = pos[order]
            reg = reg[order]
            self.write_keys = (reg * span + pos, pos, reg)
        return self.write_keys

    def provenance_codes(self, provenance):
        if self.tag_codes is None:
            tags = [tag or "original" for tag in provenance]
            self.tag_names = sorted(set(tags))
            index = {tag: code
                     for code, tag in enumerate(self.tag_names)}
            self.tag_codes = np.asarray(
                [index[tag] for tag in tags], dtype=np.int64)
        return self.tag_names, self.tag_codes


def _usable_bundle(decoded: DecodedTrace):
    """The trace's attached artifact bundle when it matches this
    decode (right length, dynamic columns present); else None."""
    bundle = getattr(decoded.trace, "artifact_bundle", None)
    if bundle is None:
        return None
    try:
        if bundle.n != len(decoded.sidx):
            return None
        if not all(bundle.has(name)
                   for name in ("sidx", "pcs", "taken")):
            return None
    except Exception:
        return None
    return bundle


def _arrays(decoded: DecodedTrace) -> "_Arrays":
    cached = getattr(decoded, _CACHE_ATTR, None)
    if cached is None or cached.n != len(decoded.sidx):
        cached = _Arrays(decoded, _usable_bundle(decoded))
        setattr(decoded, _CACHE_ATTR, cached)
    return cached


def _counts_dict(counts: "np.ndarray") -> dict:
    nz = np.flatnonzero(counts)
    return dict(zip(nz.tolist(), counts[nz].tolist()))


class ColumnarBackend(KernelBackend):
    """NumPy implementation (module docstring)."""

    name = "columnar"

    def _static_indices(self, trace) -> List[int]:
        pcs = np.asarray(trace.pcs, dtype=np.int64)
        if TEXT_BASE:
            pcs = pcs - TEXT_BASE
        return (pcs >> 2).tolist()

    def _fused(self, decoded: DecodedTrace,
               track_stores: bool) -> FusedColumns:
        arrays = _arrays(decoded)
        deadness, dead_arr, reg_kills = self._label(arrays,
                                                    track_stores)
        kills = self._kills_from_labels(decoded, arrays, dead_arr,
                                        reg_kills)
        counts = StaticCounts(
            totals=_counts_dict(np.bincount(
                arrays.sidx, minlength=len(decoded.statics))),
            deads=_counts_dict(np.bincount(
                arrays.sidx[dead_arr],
                minlength=len(decoded.statics))))
        return FusedColumns(deadness=deadness, kills=kills,
                            counts=counts)

    def _deadness(self, decoded: DecodedTrace,
                  track_stores: bool) -> DeadnessColumns:
        return self._label(_arrays(decoded), track_stores)[0]

    def _static_counts(self, decoded: DecodedTrace,
                       dead: Sequence[bool]) -> StaticCounts:
        arrays = _arrays(decoded)
        dead_arr = np.asarray(dead, dtype=bool)
        minlength = len(decoded.statics)
        return StaticCounts(
            totals=_counts_dict(np.bincount(arrays.sidx,
                                            minlength=minlength)),
            deads=_counts_dict(np.bincount(arrays.sidx[dead_arr],
                                           minlength=minlength)))

    def _kill_distances(self, decoded: DecodedTrace,
                        dead: Sequence[bool]) -> KillColumns:
        arrays = _arrays(decoded)
        return self._kills_from_labels(
            decoded, arrays, np.asarray(dead, dtype=bool))

    def _prediction_stream(self, decoded: DecodedTrace,
                           dead: Sequence[bool]) -> PredictionStream:
        arrays = _arrays(decoded)
        e_idx = np.flatnonzero(arrays.eligible)
        b_idx = np.flatnonzero(arrays.cond & ~arrays.eligible)
        eligible_dead = list(map(dead.__getitem__, e_idx.tolist()))
        return PredictionStream(
            eligible_index=e_idx.tolist(),
            eligible_pc=arrays.pcs[e_idx].tolist(),
            eligible_dead=eligible_dead,
            branch_index=b_idx.tolist(),
            branch_taken=arrays.taken[b_idx].tolist())

    # -- labeling -----------------------------------------------------

    def _label(self, arrays: "_Arrays", track_stores: bool):
        """Dead labels from the minimal sequential loop, then every
        derived column vectorized.  Returns ``(DeadnessColumns, dead
        ndarray, (victims, killer, has_next))`` — callers reuse the
        array for counters and the killer triple for kill distances."""
        dead_b, n_dead, n_dead_stores = _dead_loop(arrays,
                                                   track_stores)
        dead_arr = np.frombuffer(dead_b, dtype=np.uint8).astype(bool)
        dead = dead_arr.tolist()
        n = arrays.n
        span = n + 1

        direct_arr = np.zeros(n, dtype=bool)
        n_eligible = int(np.count_nonzero(arrays.eligible
                                          & (arrays.dest > 0)))

        # Dead register writes: direct iff no read of the register in
        # (victim, killer] — the killer's own reads count (it marks its
        # sources *after* resetting the touched flag), hence the
        # half-open-on-the-left interval.
        victims = np.flatnonzero(dead_arr & (arrays.dest > 0))
        killer, has_next = self._killers(arrays, victims)
        if victims.size:
            reads = arrays.reg_read_keys()
            base = arrays.dest[victims] * span
            lo = np.searchsorted(reads, base + victims, side="right")
            hi = np.searchsorted(reads, base + killer, side="right")
            direct_arr[victims[lo == hi]] = True

        # Dead stores: direct iff no touching load of the word in
        # (victim, next tracked store) — touching means any useful
        # load, or a dead instruction's non-byte load.
        if track_stores:
            svictims = np.flatnonzero(dead_arr & arrays.store)
            if svictims.size:
                tracked = np.flatnonzero(arrays.store & ~arrays.byte)
                tkeys = arrays.word[tracked] * span + tracked
                tkeys.sort()
                loads = np.flatnonzero(arrays.load
                                       & (~dead_arr | ~arrays.byte))
                lkeys = arrays.word[loads] * span + loads
                lkeys.sort()
                base = arrays.word[svictims] * span
                loc = np.searchsorted(tkeys, base + svictims)
                nxt = np.minimum(loc + 1, tkeys.size - 1)
                s_next = (loc + 1 < tkeys.size) \
                    & (tkeys[nxt] // span == arrays.word[svictims])
                s_killer = np.where(s_next, tkeys[nxt] % span, n)
                lo = np.searchsorted(lkeys, base + svictims,
                                     side="right")
                hi = np.searchsorted(lkeys, base + s_killer,
                                     side="left")
                direct_arr[svictims[lo == hi]] = True

        deadness = DeadnessColumns(
            dead=dead, direct=direct_arr.tolist(),
            n_eligible=n_eligible, n_dead=n_dead,
            n_direct=int(np.count_nonzero(direct_arr)),
            n_dead_stores=n_dead_stores)
        return deadness, dead_arr, (victims, killer, has_next)

    def _killers(self, arrays: "_Arrays", victims: "np.ndarray"):
        """Per victim (a dead register write): the position of the next
        write to the same register (the killer), or the sentinel ``n``
        when none exists, plus the has-killer mask."""
        wkeys, wpos, wreg = arrays.reg_write_keys()
        span = arrays.n + 1
        loc = np.searchsorted(wkeys,
                              arrays.dest[victims] * span + victims)
        nxt = np.minimum(loc + 1, max(wpos.size - 1, 0))
        has_next = (loc + 1 < wpos.size) \
            & (wreg[nxt] == arrays.dest[victims])
        killer = np.where(has_next, wpos[nxt], arrays.n)
        return killer, has_next

    def _kills_from_labels(self, decoded: DecodedTrace,
                           arrays: "_Arrays",
                           dead_arr: "np.ndarray",
                           reg_kills=None) -> KillColumns:
        if reg_kills is None:
            victims = np.flatnonzero(dead_arr & (arrays.dest > 0))
            killer, has_next = self._killers(arrays, victims)
        else:
            victims, killer, has_next = reg_kills
        if not victims.size:
            return canonical_kills([], 0)
        killed = victims[has_next]
        dist = killer[has_next] - killed
        names, codes = arrays.provenance_codes(
            decoded.statics.provenance)
        vcodes = codes[arrays.sidx[killed]]
        # Victim-ascending within each tag falls out of `killed` being
        # ascending; ascending codes give the sorted-tag dict order.
        present = np.flatnonzero(np.bincount(vcodes,
                                             minlength=len(names)))
        by_provenance = {names[code]: dist[vcodes == code].tolist()
                         for code in present.tolist()}
        return KillColumns(distances=dist.tolist(),
                           unkilled=int(np.count_nonzero(~has_next)),
                           by_provenance=by_provenance)


def plane_columns(trace, statics):
    """The derived kernel columns the artifact plane persists next to
    the raw trace columns when this backend is active: word addresses
    and the sorted read and write-successor key indexes (shared by the
    direct-label and kill-distance queries).  Everything here is a
    deterministic function of the trace, so hydrating the stored
    arrays is byte-identical to deriving them."""
    decoded = DecodedTrace(trace=trace, statics=statics,
                           sidx=trace.static_indices())
    arrays = _Arrays(decoded)
    wkeys, wpos, wreg = arrays.reg_write_keys()

    def raw(values):
        return np.ascontiguousarray(
            values.astype("<i8", copy=False)).tobytes()

    return [
        ("word", "i8", raw(arrays.word)),
        ("read_keys", "i8", raw(arrays.reg_read_keys())),
        ("write_keys", "i8", raw(wkeys)),
        ("write_pos", "i8", raw(wpos)),
        ("write_reg", "i8", raw(wreg)),
    ]


def _dead_loop(arrays: "_Arrays", track_stores: bool):
    """The irreducibly sequential part: backward dead labeling only —
    no ``touched`` flags, no counters, no kill bookkeeping (all
    vectorized afterwards).  Semantics are exactly the liveness.py
    backward pass (see :mod:`repro.kernels.ref`)."""
    (dest_l, src1_l, src2_l, side_l, load_l, store_l, byte_l,
     word_l) = arrays.loop_lists()
    n = arrays.n
    dead = bytearray(n)
    reg_live = [True] * 64  # NUM_REGS is 32; headroom is harmless
    mem_live = {}
    n_dead = n_dead_stores = 0

    for i in range(n - 1, -1, -1):
        dest = dest_l[i]
        if dest:
            if reg_live[dest] or side_l[i]:
                reg_live[dest] = False
                src = src1_l[i]
                if src > 0:
                    reg_live[src] = True
                src = src2_l[i]
                if src > 0:
                    reg_live[src] = True
                if load_l[i]:
                    mem_live[word_l[i]] = True
                continue
            reg_live[dest] = False
            dead[i] = True
            n_dead += 1
            continue
        if store_l[i]:
            if track_stores and not byte_l[i]:
                word = word_l[i]
                store_live = mem_live.get(word, True)
                mem_live[word] = False
                if not store_live:
                    dead[i] = True
                    n_dead += 1
                    n_dead_stores += 1
                    continue
            src = src1_l[i]
            if src > 0:
                reg_live[src] = True
            src = src2_l[i]
            if src > 0:
                reg_live[src] = True
            continue
        src = src1_l[i]
        if src > 0:
            reg_live[src] = True
        src = src2_l[i]
        if src > 0:
            reg_live[src] = True

    return dead, n_dead, n_dead_stores
