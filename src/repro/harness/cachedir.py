"""Content-addressed on-disk cache for experiment stages.

Layout under the cache root (default ``.repro-cache/``)::

    .repro-cache/
        stages/<stage>/<kk>/<key>.pkl   # one artifact per entry
        stages/_quarantine/<stage>/...  # corrupt entries, moved aside
        artifacts/<kk>/<key>.cols       # mmap column bundles (tier 2,
        artifacts/_quarantine/...       #   see harness/artifacts.py)
        runs/history.jsonl              # the run log (runmeta)
        runs/obs-<id>/                  # one observed run's telemetry

Keys are SHA-256 hex digests computed by :func:`stable_hash` over the
*content* of every input that can change the artifact: source text,
canonical config keys (``to_key()``, see ``repro.keys``), and a code
salt.  The salt for a stage is a hash of the source files of the
subpackages that implement it (:func:`code_salt`), so editing the
compiler invalidates compiled artifacts, editing the emulator
invalidates traces, and so on — no manual version bumps.

Robustness contract (docs/harness.md):

* A cache entry is advisory.  :meth:`CacheDir.load` returns the
  sentinel :data:`MISS` on *any* failure — missing file, bad checksum,
  truncated pickle, unreadable directory — and callers recompute and
  re-store.
* Every entry carries an integrity header (:data:`ENTRY_MAGIC` + the
  SHA-256 of its pickle payload); a file that exists but fails
  verification is **quarantined** — moved under
  ``stages/_quarantine/`` so it can never be served again and remains
  available for post-mortems — and counted.
* :meth:`CacheDir.store` is best-effort: *any* exception (IO errors,
  unpicklable artifacts, injected faults) is swallowed and counted —
  the cache is an accelerator, never a correctness dependency.
* Writes are atomic (temp file + ``os.replace``), so concurrent pool
  workers can populate the same cache safely.  A writer killed between
  the two steps leaks a ``*.tmp`` file; :meth:`sweep_temp` (and the
  ``cache gc`` CLI) removes stale ones.

Fault injection (``repro.harness.faults``) hooks the read and write
paths so all of the above is exercised by tests, not just promised.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.harness import faults

#: Sentinel returned by :meth:`CacheDir.load` when there is no usable
#: entry.  Distinct from ``None`` so ``None`` is storable.
MISS = object()

#: Bump to invalidate every entry across a cache-format change.
#: "2": entries gained the integrity header (magic + payload SHA-256).
#: "3": the mmap artifact plane landed (``harness/artifacts.py``);
#: stage entries and column bundles invalidate together so the two
#: tiers can never disagree about what a key means.
CACHE_SCHEMA = "3"

#: First bytes of every entry file; a file without it is corrupt (or
#: predates the checksummed format) and gets quarantined.
ENTRY_MAGIC = b"RPRC2\n"

#: Directory under ``stages/`` holding quarantined entries.  Skipped by
#: :meth:`CacheDir.iter_entries` (leading underscore).
QUARANTINE_DIR = "_quarantine"

_SEPARATOR = "\x1f"  # unit separator: cannot appear in hex keys/configs


def stable_hash(*parts: str) -> str:
    """SHA-256 over the parts, order-sensitive, collision-safe joined."""
    digest = hashlib.sha256()
    digest.update(CACHE_SCHEMA.encode("utf-8"))
    for part in parts:
        digest.update(_SEPARATOR.encode("utf-8"))
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


_SALT_CACHE: Dict[Tuple[str, ...], str] = {}


def code_salt(*subpackages: str) -> str:
    """Hash of the ``.py`` sources of the named ``repro`` subpackages.

    Any edit to the code implementing a stage changes its salt and
    therefore every key derived from it — stale artifacts can never be
    served after a code change.  Computed once per process.
    """
    names = tuple(sorted(subpackages))
    cached = _SALT_CACHE.get(names)
    if cached is not None:
        return cached
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for name in names:
        package_dir = os.path.join(root, *name.split("."))
        paths = []
        if os.path.isdir(package_dir):
            for dirpath, _dirnames, filenames in os.walk(package_dir):
                for filename in filenames:
                    if filename.endswith(".py"):
                        paths.append(os.path.join(dirpath, filename))
        elif os.path.isfile(package_dir + ".py"):
            paths.append(package_dir + ".py")
        for path in sorted(paths):
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as stream:
                digest.update(stream.read())
    salt = digest.hexdigest()
    _SALT_CACHE[names] = salt
    return salt


#: Which subpackages feed each cacheable stage (the salt recipe).  Every
#: ``repro`` subpackage a stage's code imports is salted here or by a
#: stage its key chains through; tests/test_harness_salts.py checks it.
STAGE_CODE = {
    "compile": ("lang", "isa", "keys"),
    "trace": ("isa", "emulator", "workloads"),
    "analysis": ("analysis", "kernels"),
    "paths": ("predictors", "analysis", "kernels"),
    "timing": ("pipeline", "predictors", "analysis", "kernels", "keys"),
    "predict": ("predictors", "analysis", "kernels"),
}


def stage_salt(stage: str) -> str:
    """The code salt for one named stage (see :data:`STAGE_CODE`)."""
    return code_salt(*STAGE_CODE[stage])


class CorruptEntry(Exception):
    """An entry file exists but fails integrity verification."""


def encode_entry(value: object) -> bytes:
    """The on-disk representation of one artifact: magic, the hex
    SHA-256 of the pickle payload, a newline, then the payload."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return ENTRY_MAGIC + digest + b"\n" + payload


def decode_entry(blob: bytes) -> object:
    """Verify and unpickle one entry blob; raises :class:`CorruptEntry`
    on bad magic, bad checksum, or a payload that fails to unpickle."""
    if not blob.startswith(ENTRY_MAGIC):
        raise CorruptEntry("bad magic")
    header_end = len(ENTRY_MAGIC) + 64
    digest = blob[len(ENTRY_MAGIC):header_end]
    if blob[header_end:header_end + 1] != b"\n":
        raise CorruptEntry("truncated header")
    payload = blob[header_end + 1:]
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise CorruptEntry("checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise CorruptEntry("unpicklable payload: %r" % (error,))


class CacheDir:
    """One on-disk cache root; see the module docstring for layout."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        #: robustness tallies for this handle (``Engine.robustness``)
        self.counters: Dict[str, int] = {
            "store_errors": 0, "quarantined": 0, "tmp_swept": 0,
            "evicted": 0,
        }

    # -- paths --------------------------------------------------------

    @property
    def stages_root(self) -> str:
        return os.path.join(self.root, "stages")

    @property
    def runs_root(self) -> str:
        return os.path.join(self.root, "runs")

    @property
    def quarantine_root(self) -> str:
        return os.path.join(self.stages_root, QUARANTINE_DIR)

    @property
    def artifacts_root(self) -> str:
        """The artifact plane's tree (written/read by
        :class:`repro.harness.artifacts.ArtifactPlane`; this class
        only does the shared maintenance: stats, temp sweep, gc)."""
        return os.path.join(self.root, "artifacts")

    @property
    def artifacts_quarantine_root(self) -> str:
        return os.path.join(self.artifacts_root, QUARANTINE_DIR)

    def entry_path(self, stage: str, key: str) -> str:
        return os.path.join(self.stages_root, stage, key[:2],
                            key + ".pkl")

    # -- load/store ---------------------------------------------------

    def load(self, stage: str, key: str) -> object:
        """The stored artifact, or :data:`MISS` on any failure.

        A missing or unreadable file is a plain miss; a file that
        exists but fails integrity verification is quarantined (moved
        under ``stages/_quarantine/``) so the corrupt bytes are never
        consulted again yet stay inspectable.
        """
        path = self.entry_path(stage, key)
        try:
            if faults.should_fire("cache.read.ioerror"):
                raise faults.InjectedIOError(
                    "injected read fault: %s/%s" % (stage, key[:12]))
            with open(path, "rb") as stream:
                blob = stream.read()
        except OSError:
            return MISS
        if faults.should_fire("cache.read.garbage"):
            blob = b"\x00injected-garbage\x00" + blob[:32]
        try:
            return decode_entry(blob)
        except CorruptEntry:
            self._quarantine(stage, path)
            return MISS

    def store(self, stage: str, key: str, value: object) -> None:
        """Atomically persist one artifact.  Best-effort: *any*
        failure — IO errors, unpicklable artifacts, injected faults —
        is swallowed and counted; the cache is an accelerator, not a
        correctness dependency."""
        path = self.entry_path(stage, key)
        try:
            if faults.should_fire("cache.write.unpicklable"):
                value = lambda: None  # noqa: E731 — cannot pickle
            blob = encode_entry(value)
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            if faults.should_fire("cache.write.ioerror"):
                raise faults.InjectedIOError(
                    "injected write fault: %s/%s" % (stage, key[:12]))
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

    # -- quarantine ---------------------------------------------------

    def _quarantine(self, stage: str, path: str) -> None:
        """Move one corrupt entry file under the quarantine tree."""
        target_dir = os.path.join(self.quarantine_root, stage)
        try:
            os.makedirs(target_dir, exist_ok=True)
            os.replace(path,
                       os.path.join(target_dir, os.path.basename(path)))
        except OSError:
            # Quarantine is best-effort too: if the move fails, at
            # least try to unlink so the corrupt entry cannot be
            # served again.
            try:
                os.unlink(path)
            except OSError:
                pass
        self.counters["quarantined"] += 1

    def quarantine_stats(self) -> Dict[str, int]:
        """``{"entries": n, "bytes": b}`` over the quarantine tree."""
        entries = 0
        size = 0
        for _dirpath, path in self._quarantined_files():
            entries += 1
            try:
                size += os.path.getsize(path)
            except OSError:
                pass
        return {"entries": entries, "bytes": size}

    def _quarantined_files(self) -> Iterable[Tuple[str, str]]:
        for root in (self.quarantine_root,
                     self.artifacts_quarantine_root):
            if not os.path.isdir(root):
                continue
            for dirpath, _dirnames, filenames in os.walk(root):
                for filename in sorted(filenames):
                    yield dirpath, os.path.join(dirpath, filename)

    # -- maintenance --------------------------------------------------

    def iter_entries(self) -> Iterable[Tuple[str, str, int]]:
        """Yield ``(stage, path, size_bytes)`` for every live entry —
        stage pickles plus the artifact plane's ``.cols`` bundles
        (reported under the pseudo-stage ``artifacts``); quarantined
        files and ``*.tmp`` leftovers excluded.  This is the inventory
        ``stats``/``gc`` work from, so plane files age out of a
        size-bounded cache oldest-first exactly like stage entries."""
        stages_root = self.stages_root
        if os.path.isdir(stages_root):
            for stage in sorted(os.listdir(stages_root)):
                if stage.startswith("_"):
                    continue  # _quarantine and friends
                stage_dir = os.path.join(stages_root, stage)
                if not os.path.isdir(stage_dir):
                    continue
                for dirpath, _dirnames, filenames in os.walk(stage_dir):
                    for filename in sorted(filenames):
                        if not filename.endswith(".pkl"):
                            continue
                        path = os.path.join(dirpath, filename)
                        try:
                            size = os.path.getsize(path)
                        except OSError:
                            continue
                        yield stage, path, size
        artifacts_root = self.artifacts_root
        if os.path.isdir(artifacts_root):
            for dirpath, dirnames, filenames in os.walk(artifacts_root):
                dirnames[:] = [name for name in sorted(dirnames)
                               if not name.startswith("_")]
                for filename in sorted(filenames):
                    if not filename.endswith(".cols"):
                        continue
                    path = os.path.join(dirpath, filename)
                    try:
                        size = os.path.getsize(path)
                    except OSError:
                        continue
                    yield "artifacts", path, size

    def temp_files(self) -> List[str]:
        """Every orphaned ``*.tmp`` file under the stage tree *and*
        the artifact plane (a writer died between ``mkstemp`` and
        ``os.replace`` — partial bundles land here too)."""
        found: List[str] = []
        for root in (self.stages_root, self.artifacts_root):
            if not os.path.isdir(root):
                continue
            for dirpath, _dirnames, filenames in os.walk(root):
                for filename in sorted(filenames):
                    if filename.endswith(".tmp"):
                        found.append(os.path.join(dirpath, filename))
        return found

    def sweep_temp(self, max_age_seconds: float = 3600.0) -> int:
        """Delete orphaned ``*.tmp`` files older than *max_age_seconds*
        (age guards against sweeping a concurrent writer's live temp
        file); returns how many were removed."""
        now = time.time()
        removed = 0
        for path in self.temp_files():
            try:
                if now - os.path.getmtime(path) < max_age_seconds:
                    continue
                os.unlink(path)
            except OSError:
                continue
            removed += 1
        self.counters["tmp_swept"] += removed
        return removed

    def gc(self, max_bytes: Optional[int] = None,
           tmp_max_age_seconds: float = 3600.0,
           drop_quarantine: bool = True) -> Dict[str, int]:
        """Garbage-collect the cache: sweep stale temp files, drop
        quarantined entries, and (with *max_bytes*) evict the
        least recently written live entries (oldest mtime first; a
        load does not touch mtime) until the store fits the bound.
        Returns counts: ``tmp_swept``, ``quarantine_dropped``,
        ``evicted``, ``remaining_bytes``."""
        import shutil

        swept = self.sweep_temp(tmp_max_age_seconds)
        quarantine_dropped = 0
        if drop_quarantine:
            quarantine_dropped = sum(
                1 for _ in self._quarantined_files())
            shutil.rmtree(self.quarantine_root, ignore_errors=True)
            shutil.rmtree(self.artifacts_quarantine_root,
                          ignore_errors=True)
        evicted = 0
        remaining = 0
        aged: List[Tuple[float, str, int]] = []
        for _stage, path, size in self.iter_entries():
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                continue
            aged.append((mtime, path, size))
            remaining += size
        if max_bytes is not None:
            aged.sort()  # oldest first
            for _mtime, path, size in aged:
                if remaining <= max_bytes:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                remaining -= size
                evicted += 1
        self.counters["evicted"] += evicted
        return {"tmp_swept": swept,
                "quarantine_dropped": quarantine_dropped,
                "evicted": evicted,
                "remaining_bytes": remaining}

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage ``{"entries": n, "bytes": b}`` plus a total."""
        per_stage: Dict[str, Dict[str, int]] = {}
        for stage, _path, size in self.iter_entries():
            bucket = per_stage.setdefault(stage,
                                          {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        total = {"entries": sum(b["entries"] for b in per_stage.values()),
                 "bytes": sum(b["bytes"] for b in per_stage.values())}
        per_stage["total"] = total
        return per_stage

    def clear(self, runs: bool = False) -> int:
        """Delete all stage entries (and, with *runs*, the run log and
        every run's observability artifacts); returns the number of
        stage entries removed."""
        import shutil

        removed = sum(1 for _ in self.iter_entries())
        shutil.rmtree(self.stages_root, ignore_errors=True)
        shutil.rmtree(self.artifacts_root, ignore_errors=True)
        if runs:
            shutil.rmtree(self.runs_root, ignore_errors=True)
        return removed
