"""The mmap-backed columnar artifact plane (cache tier two).

The stage cache (``cachedir.py``) stores pickle blobs: correct, but a
hot multi-process sweep pays to *unpickle the same trace in every
worker, for every cell* — ~3 list-of-int decodes per cell plus the
same bytes pickled back through the result pipe.  The artifact plane
removes that data movement.  Each trace's columns (static indices
included) and each analysis's labels and fused-pass columns are
persisted **once**, as a checksummed flat columnar file that every
process opens with ``mmap``:

* read-only mappings share the OS page cache — N workers attaching the
  same bundle cost one physical copy;
* columns are raw little-endian arrays at 64-byte-aligned offsets, so
  a column hydrates with one C-level ``memoryview.cast(...).tolist()``
  pass over the mapped pages;
* workers hand the parent an :class:`ArtifactHandle` (key + path +
  checksum + length) instead of the column data, so the result pipe
  carries ~100 bytes per cell instead of megabytes.

File format (``.cols``)::

    RPART1\\n                  magic (7 bytes)
    <64 hex sha256>\\n         checksum of everything that follows
    <one-line JSON TOC>\\n     {"schema","kind","n","columns","meta"}
    <zero padding>            to the next 64-byte boundary
    <column data>             raw arrays, each 64-byte aligned

TOC ``columns`` maps name -> ``[dtype, count, offset]`` with offsets
relative to the aligned data start; dtypes are ``i8`` (little-endian
int64) and ``u1`` (one byte per element: bools, 0/1 label blobs, or
raw pickled bytes).

Robustness contract (docs/harness.md): the plane is an accelerator,
never a correctness dependency.  :meth:`ArtifactPlane.attach` returns
``None`` on any failure; a file that exists but fails header, bounds,
or checksum verification is quarantined under
``artifacts/_quarantine/`` and counted.  :meth:`ArtifactPlane.store`
swallows every exception (atomic temp-file + ``os.replace`` writes, so
crashed writers leave only ``*.tmp`` files for ``sweep_temp``).  The
``artifact.read.*``/``artifact.write.ioerror`` fault points inject all
of these failures deterministically.

Checksums are verified once per (path, size, mtime) per process and
memoized (:data:`_VERIFIED`); forked pool workers inherit the parent's
memo, so a hot sweep hashes each bundle once, not once per attach.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import pickle
import sys
import tempfile
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness import faults
from repro.harness.cachedir import code_salt, stable_hash

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactHandle",
    "ArtifactPlane",
    "ColumnBundle",
    "CorruptArtifact",
    "MAGIC",
    "PLANE_SUPPORTED",
    "artifact_key",
    "encode_bundle",
    "fused_doc_from_bundle",
    "is_analysis_bundle",
    "is_trace_bundle",
    "store_analysis_bundle",
    "store_trace_bundle",
    "unpack_output",
]

#: First bytes of every bundle file.
MAGIC = b"RPART1\n"

#: Bundle format version; part of every artifact key, so a format
#: change can never serve stale bundles.
ARTIFACT_SCHEMA = "1"

#: Directory under the cache root holding the plane.
PLANE_DIR = "artifacts"

#: Corrupt bundles are moved here (mirrors ``stages/_quarantine``).
QUARANTINE_DIR = "_quarantine"

#: The format stores raw little-endian arrays, written and read in the
#: host's native order; on a big-endian host the engine simply leaves
#: the plane off and runs on the pickle tier.
PLANE_SUPPORTED = sys.byteorder == "little"

_HEADER_LEN = len(MAGIC) + 64 + 1  # magic + checksum hex + newline
_ALIGN = 64
_ITEM_SIZE = {"i8": 8, "u1": 1}
#: ``memoryview.cast`` format per column dtype.
_CAST = {"i8": "q", "u1": "?"}
#: TOC lines are one short JSON object; bounding the newline scan keeps
#: a garbage file from forcing a full-file search.
_TOC_SCAN_LIMIT = 1 << 20


class CorruptArtifact(Exception):
    """A bundle file exists but fails integrity verification."""


def artifact_key(kind: str, parent_key: str) -> str:
    """The plane key for one bundle: chained from the owning stage key
    plus the bundle schema and the salt of the code that writes/reads
    bundles."""
    return stable_hash("artifact", kind, parent_key, ARTIFACT_SCHEMA,
                       code_salt("kernels", "harness.artifacts"))


# ---------------------------------------------------------------------
# Column encoding
# ---------------------------------------------------------------------


def _aligned(position: int) -> int:
    return (position + _ALIGN - 1) // _ALIGN * _ALIGN


def i8_bytes(values: Sequence[int]) -> bytes:
    """Native (little-endian, see :data:`PLANE_SUPPORTED`) int64 raw
    bytes from a sequence of ints."""
    return array("q", values).tobytes()


def u1_bytes(values) -> bytes:
    """One-byte-per-element raw bytes (bools, 0/1 blobs, raw bytes)."""
    if isinstance(values, (bytes, bytearray)):
        return bytes(values)
    return bytes(bytearray(values))


def encode_bundle(kind: str, n: int,
                  columns: Sequence[Tuple[str, str, bytes]],
                  meta: Optional[Dict[str, object]] = None) -> bytes:
    """The on-disk representation of one bundle (module docstring)."""
    toc_columns: Dict[str, List[object]] = {}
    placed: List[Tuple[int, bytes]] = []
    position = 0
    for name, dtype, blob in columns:
        item = _ITEM_SIZE[dtype]
        if len(blob) % item:
            raise ValueError("column %r: %d bytes is not a multiple of "
                             "the %s item size" % (name, len(blob), dtype))
        position = _aligned(position)
        toc_columns[name] = [dtype, len(blob) // item, position]
        placed.append((position, blob))
        position += len(blob)
    toc = {"schema": ARTIFACT_SCHEMA, "kind": kind, "n": int(n),
           "columns": toc_columns, "meta": meta or {}}
    toc_line = json.dumps(toc, sort_keys=True,
                          separators=(",", ":")).encode("utf-8") + b"\n"
    data_start = _aligned(_HEADER_LEN + len(toc_line))
    body = bytearray(data_start - _HEADER_LEN + position)
    body[:len(toc_line)] = toc_line
    base = data_start - _HEADER_LEN
    for offset, blob in placed:
        body[base + offset:base + offset + len(blob)] = blob
    digest = hashlib.sha256(bytes(body)).hexdigest().encode("ascii")
    return MAGIC + digest + b"\n" + bytes(body)


# ---------------------------------------------------------------------
# Bundles and handles
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactHandle:
    """What crosses the pool's result pipe instead of column data."""

    key: str
    kind: str
    path: str
    checksum: str
    n: int


class ColumnBundle:
    """Read-only view of one parsed bundle (an mmap, normally)."""

    def __init__(self, path: str, buffer, mapped,
                 checksum: str, toc: Dict[str, object],
                 data_start: int):
        self.path = path
        self._buffer = buffer
        self._mapped = mapped
        self.checksum = checksum
        self.kind = str(toc.get("kind", ""))
        self.n = int(toc.get("n", 0))
        self.meta: Dict[str, object] = toc.get("meta") or {}
        self._columns: Dict[str, List[object]] = toc.get("columns") or {}
        self._data_start = data_start

    @classmethod
    def parse(cls, path: str, buffer) -> "ColumnBundle":
        """Parse a header; raises :class:`CorruptArtifact` on bad
        magic, malformed TOC, or any column outside the file bounds."""
        if len(buffer) < _HEADER_LEN or bytes(buffer[:len(MAGIC)]) != MAGIC:
            raise CorruptArtifact("bad magic: %s" % path)
        checksum = bytes(buffer[len(MAGIC):len(MAGIC) + 64]).decode(
            "ascii", "replace")
        if bytes(buffer[_HEADER_LEN - 1:_HEADER_LEN]) != b"\n":
            raise CorruptArtifact("truncated header: %s" % path)
        end = buffer.find(b"\n", _HEADER_LEN,
                          _HEADER_LEN + _TOC_SCAN_LIMIT)
        if end < 0:
            raise CorruptArtifact("missing TOC: %s" % path)
        try:
            toc = json.loads(bytes(buffer[_HEADER_LEN:end]).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise CorruptArtifact("unparsable TOC: %s" % path)
        if not isinstance(toc, dict) or toc.get("schema") != ARTIFACT_SCHEMA:
            raise CorruptArtifact("schema mismatch: %s" % path)
        data_start = _aligned(end + 1)
        columns = toc.get("columns") or {}
        for name, entry in columns.items():
            try:
                dtype, count, offset = entry
                span = int(count) * _ITEM_SIZE[dtype]
                if data_start + int(offset) + span > len(buffer):
                    raise CorruptArtifact(
                        "column %r out of bounds: %s" % (name, path))
            except (KeyError, TypeError, ValueError):
                raise CorruptArtifact(
                    "malformed column %r: %s" % (name, path))
        return cls(path, buffer, None, checksum, toc, data_start)

    def verify(self) -> bool:
        """Whether the body matches the header checksum (zero-copy
        hashing over the mapped pages)."""
        digest = hashlib.sha256(
            memoryview(self._buffer)[_HEADER_LEN:]).hexdigest()
        return digest == self.checksum

    def handle(self, key: str) -> ArtifactHandle:
        return ArtifactHandle(key=key, kind=self.kind, path=self.path,
                              checksum=self.checksum, n=self.n)

    def close(self) -> None:
        mapped, self._mapped = self._mapped, None
        if mapped is not None:
            try:
                mapped.close()
            except (BufferError, OSError):
                # A live view still references the map; leave it to
                # process teardown.
                pass

    # -- column access ------------------------------------------------

    def has(self, name: str) -> bool:
        return name in self._columns

    def _locate(self, name: str, dtype: str) -> Tuple[int, int]:
        entry = self._columns[name]
        if entry[0] != dtype:
            raise CorruptArtifact(
                "column %r is %s, wanted %s" % (name, entry[0], dtype))
        return int(entry[1]), self._data_start + int(entry[2])

    def _hydrate(self, name: str, dtype: str) -> list:
        """One column as a plain list, read in place through the
        buffer protocol; the views are released before returning, so
        they never keep the map open."""
        count, start = self._locate(name, dtype)
        end = start + count * _ITEM_SIZE[dtype]
        with memoryview(self._buffer) as view, \
                view[start:end] as raw, raw.cast(_CAST[dtype]) as column:
            return column.tolist()

    def ints(self, name: str) -> List[int]:
        """One ``i8`` column as a plain list of Python ints."""
        return self._hydrate(name, "i8")

    def bools(self, name: str) -> List[bool]:
        """One ``u1`` column as a plain list of Python bools."""
        return self._hydrate(name, "u1")

    def blob(self, name: str) -> bytes:
        """One ``u1`` column as raw bytes."""
        count, start = self._locate(name, "u1")
        return bytes(self._buffer[start:start + count])


# ---------------------------------------------------------------------
# The plane
# ---------------------------------------------------------------------

#: (path, size, mtime_ns) -> verified checksum; per-process, inherited
#: by forked workers, keyed on stat identity so a replaced file always
#: re-verifies.
_VERIFIED: Dict[Tuple[str, int, int], str] = {}


def _reset_verified() -> None:
    """Drop the verification memo (tests)."""
    _VERIFIED.clear()


class ArtifactPlane:
    """One artifact-plane root under a cache directory."""

    def __init__(self, cache_root: str):
        self.cache_root = os.path.abspath(cache_root)
        self.root = os.path.join(self.cache_root, PLANE_DIR)
        #: robustness tallies for this handle (``Engine.robustness``);
        #: ``fallbacks`` counts cells re-materialized through the
        #: pickle tier after a shipped handle failed to re-attach
        self.counters: Dict[str, int] = {
            "attach_hits": 0, "attach_misses": 0, "stores": 0,
            "store_errors": 0, "quarantined": 0, "fallbacks": 0,
        }

    @property
    def quarantine_root(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    def entry_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".cols")

    # -- attach -------------------------------------------------------

    def attach(self, key: str,
               expected_checksum: Optional[str] = None
               ) -> Optional[ColumnBundle]:
        """Open, parse, and verify one bundle by key; ``None`` on any
        failure (missing file, corrupt header/bounds/checksum — which
        also quarantines — or a checksum other than expected)."""
        return self._attach_path(self.entry_path(key),
                                 expected_checksum)

    def attach_handle(self, handle: ArtifactHandle
                      ) -> Optional[ColumnBundle]:
        """Attach the bundle a worker shipped as a handle, insisting
        on the worker-observed checksum."""
        return self._attach_path(handle.path, handle.checksum)

    def _attach_path(self, path: str,
                     expected: Optional[str]) -> Optional[ColumnBundle]:
        try:
            if faults.should_fire("artifact.read.ioerror"):
                raise faults.InjectedIOError(
                    "injected artifact read fault: %s"
                    % os.path.basename(path))
            stream = open(path, "rb")
        except OSError:
            return self._miss()
        try:
            try:
                mapped = mmap.mmap(stream.fileno(), 0,
                                   access=mmap.ACCESS_READ)
            except (OSError, ValueError):  # ValueError: empty file
                return self._miss()
        finally:
            stream.close()
        buffer = mapped
        if faults.should_fire("artifact.read.truncated"):
            buffer = bytes(mapped[:max(len(mapped) // 2, len(MAGIC))])
        elif faults.should_fire("artifact.read.garbage"):
            buffer = b"\x00injected-garbage\x00" + bytes(mapped[:64])
        faulted = buffer is not mapped
        try:
            bundle = ColumnBundle.parse(path, buffer)
            bundle._mapped = mapped
            if not self._checksum_ok(path, bundle,
                                     allow_memo=not faulted):
                raise CorruptArtifact("checksum mismatch: %s" % path)
        except CorruptArtifact:
            self._close_map(mapped)
            self._quarantine(path)
            return self._miss()
        if expected is not None and bundle.checksum != expected:
            bundle.close()
            return self._miss()
        self.counters["attach_hits"] += 1
        return bundle

    def _checksum_ok(self, path: str, bundle: ColumnBundle,
                     allow_memo: bool) -> bool:
        token = None
        try:
            stat = os.stat(path)
            token = (path, stat.st_size, stat.st_mtime_ns)
        except OSError:
            pass
        if allow_memo and token is not None \
                and _VERIFIED.get(token) == bundle.checksum:
            return True
        if not bundle.verify():
            return False
        if token is not None:
            _VERIFIED[token] = bundle.checksum
        return True

    def _miss(self) -> None:
        self.counters["attach_misses"] += 1
        return None

    @staticmethod
    def _close_map(mapped) -> None:
        try:
            mapped.close()
        except (BufferError, OSError):
            pass

    # -- store --------------------------------------------------------

    def store(self, key: str, kind: str, n: int,
              columns: Sequence[Tuple[str, str, bytes]],
              meta: Optional[Dict[str, object]] = None
              ) -> Optional[ArtifactHandle]:
        """Atomically persist one bundle.  Best-effort like
        :meth:`CacheDir.store`: any failure is swallowed and counted,
        and ``None`` comes back instead of a handle."""
        path = self.entry_path(key)
        try:
            blob = encode_bundle(kind, n, columns, meta)
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            if faults.should_fire("artifact.write.ioerror"):
                raise faults.InjectedIOError(
                    "injected artifact write fault: %s" % key[:12])
            fd, temp_path = tempfile.mkstemp(dir=directory,
                                             suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as stream:
                    stream.write(blob)
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except Exception:
            self.counters["store_errors"] += 1
            return None
        self.counters["stores"] += 1
        checksum = blob[len(MAGIC):len(MAGIC) + 64].decode("ascii")
        return ArtifactHandle(key=key, kind=kind, path=path,
                              checksum=checksum, n=int(n))

    # -- quarantine / stats -------------------------------------------

    def _quarantine(self, path: str) -> None:
        try:
            os.makedirs(self.quarantine_root, exist_ok=True)
            os.replace(path, os.path.join(self.quarantine_root,
                                          os.path.basename(path)))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        self.counters["quarantined"] += 1

    def stats(self) -> Dict[str, int]:
        """``{"entries": n, "bytes": b}`` over the live plane files."""
        entries = 0
        size = 0
        if not os.path.isdir(self.root):
            return {"entries": 0, "bytes": 0}
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = [name for name in dirnames
                           if not name.startswith("_")]
            for filename in filenames:
                if not filename.endswith(".cols"):
                    continue
                entries += 1
                try:
                    size += os.path.getsize(
                        os.path.join(dirpath, filename))
                except OSError:
                    pass
        return {"entries": entries, "bytes": size}


# ---------------------------------------------------------------------
# Bundle kinds: trace and analysis
# ---------------------------------------------------------------------

_TRACE_COLUMNS = ("pcs", "taken", "addrs", "sidx", "out")
_ANALYSIS_COLUMNS = ("dead", "direct", "distances",
                     "total_keys", "total_vals",
                     "deads_keys", "deads_vals")


def is_trace_bundle(bundle: ColumnBundle,
                    n: Optional[int] = None) -> bool:
    """Whether *bundle* is a complete trace bundle (of length *n*)."""
    if bundle.kind != "trace":
        return False
    if n is not None and bundle.n != n:
        return False
    return all(bundle.has(name) for name in _TRACE_COLUMNS)


def is_analysis_bundle(bundle: ColumnBundle, n: int) -> bool:
    """Whether *bundle* is a complete analysis bundle for an
    *n*-instruction trace."""
    if bundle.kind != "analysis" or bundle.n != n:
        return False
    if not isinstance(bundle.meta.get("counts"), dict):
        return False
    return all(bundle.has(name) for name in _ANALYSIS_COLUMNS)


def store_trace_bundle(plane: ArtifactPlane, key: str, program,
                       pcs: Sequence[int], taken: Sequence[bool],
                       addrs: Sequence[int],
                       output: Sequence[object]
                       ) -> Optional[ArtifactHandle]:
    """Persist one trace's dynamic columns plus its static indices."""
    from repro.emulator.trace import Trace

    trace = Trace(program)
    trace.pcs = list(pcs)
    trace.taken = list(taken)
    trace.addrs = list(addrs)
    columns: List[Tuple[str, str, bytes]] = [
        ("pcs", "i8", i8_bytes(trace.pcs)),
        ("taken", "u1", u1_bytes(trace.taken)),
        ("addrs", "i8", i8_bytes(trace.addrs)),
        ("sidx", "i8", i8_bytes(trace.static_indices())),
        ("out", "u1", pickle.dumps(list(output), protocol=2)),
    ]
    return plane.store(key, "trace", len(trace.pcs), columns)


def unpack_output(bundle: ColumnBundle) -> List[object]:
    """The emulator output list stored in a trace bundle."""
    return pickle.loads(bundle.blob("out"))


def store_analysis_bundle(plane: ArtifactPlane, key: str, n: int,
                          dead_blob: bytes, direct_blob: bytes,
                          counts: Dict[str, int],
                          fused_doc: Dict[str, object]
                          ) -> Optional[ArtifactHandle]:
    """Persist one analysis stage result (the deadness label blobs
    plus the fused pass's kill/counter columns) as a bundle.

    ``by_provenance`` is stored as one column per tag (``prov:<i>``,
    tag names in the TOC meta) so the canonical per-tag victim order
    reconstructs exactly; the counter dicts become parallel key/value
    columns in their canonical sorted-key order.
    """
    by_provenance: Dict[str, List[int]] = fused_doc["by_provenance"]
    totals: Dict[int, int] = fused_doc["totals"]
    deads: Dict[int, int] = fused_doc["deads"]
    names = list(by_provenance)
    columns: List[Tuple[str, str, bytes]] = [
        ("dead", "u1", u1_bytes(dead_blob)),
        ("direct", "u1", u1_bytes(direct_blob)),
        ("distances", "i8", i8_bytes(fused_doc["distances"])),
        ("total_keys", "i8", i8_bytes(list(totals.keys()))),
        ("total_vals", "i8", i8_bytes(list(totals.values()))),
        ("deads_keys", "i8", i8_bytes(list(deads.keys()))),
        ("deads_vals", "i8", i8_bytes(list(deads.values()))),
    ]
    for code, name in enumerate(names):
        columns.append(("prov:%d" % code, "i8",
                        i8_bytes(by_provenance[name])))
    meta = {"counts": {key_: int(value)
                       for key_, value in counts.items()},
            "unkilled": int(fused_doc["unkilled"]),
            "prov_names": names}
    return plane.store(key, "analysis", n, columns, meta)


def counts_from_bundle(bundle: ColumnBundle) -> Dict[str, int]:
    """The analysis summary counters stored in a bundle's meta."""
    return {key: int(value)
            for key, value in bundle.meta.get("counts", {}).items()}


def fused_doc_from_bundle(bundle: ColumnBundle) -> Dict[str, object]:
    """Rebuild the fused-pass document (the exact dict
    ``engine._fused_to_doc`` produces) from an analysis bundle —
    pickle-identical to the in-memory derivation by construction."""
    names = list(bundle.meta.get("prov_names") or [])
    return {
        "distances": bundle.ints("distances"),
        "unkilled": int(bundle.meta.get("unkilled", 0)),
        "by_provenance": {name: bundle.ints("prov:%d" % code)
                          for code, name in enumerate(names)},
        "totals": dict(zip(bundle.ints("total_keys"),
                           bundle.ints("total_vals"))),
        "deads": dict(zip(bundle.ints("deads_keys"),
                          bundle.ints("deads_vals"))),
    }
