"""The experiment engine: staged, cached, parallel execution.

Every experiment decomposes into the same stage graph per
(workload × compiler-options × scale) cell::

    source ──compile──> assembly ──trace──> (pcs/taken/addrs, output)
                                     │
                                     ├──analysis──> deadness labels
                                     ├──paths────> future-path views
                                     ├──predict──> predictor counters
                                     └──timing───> pipeline statistics

Each arrow is a cacheable stage with a content-addressed key (see
``repro.harness.cachedir``): the compile key hashes the generated
source text and the canonical compiler-option key; the trace key
hashes the workload and the assembly the compile stage produced, so
options that compile to one program share everything past compile;
every downstream key chains from the trace key plus the salt of the
code that implements the stage.  Identical inputs therefore always
reuse the artifact, and *any* relevant change — source, options,
seed/scale (via the source text), machine config, or the implementing
code itself — recomputes exactly the invalidated suffix of the graph.
One helper, :func:`_cached`, serves every stage in the parent and in
pool workers; ``predict`` lives in :mod:`repro.harness.sweep`, next to
the walk it caches.  A materialized cell is one :class:`CellArtifact`,
owned by the engine: :meth:`Engine.suite` memoizes cells per engine.
A cell's keys, output, length and analysis counts are set when it is
materialized; its program, static table and columns load on first use
(:func:`_materialize_payload`), so a pass whose results all come from
stage hits reads only what it renders.

Independent cells fan out across a ``multiprocessing`` pool
(``jobs > 1``) with deterministic result ordering (input order, not
completion order), a per-cell timeout, and supervision: a faulted
pool cell is recomputed serially in the parent with exponential
backoff, repeated pool faults degrade the engine to serial execution
for the rest of the process, and with ``partial`` reporting a cell
that fails every retry is recorded in run metadata instead of
aborting the sweep (see :meth:`Engine.robustness` and
``repro.harness.faults`` for the fault points that exercise all of
this).  ``jobs = 1`` runs plain in-process with no pool at all.
Results are bit-identical between
serial and parallel execution and between cold and hot caches: cache
artifacts are plain ints/bools/strings whose pickle round-trip is
exact, and every reconstruction path rebuilds the same objects the
direct path produces.

The module-level :func:`get_engine` singleton is what the harness
(:func:`suite_runs`, ``experiments.py``, ``cli.py``, benchmarks) uses;
tests construct private :class:`Engine` instances around temporary
cache directories.
"""

from __future__ import annotations

import copy
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis import DeadnessAnalysis, analyze_deadness
from repro.analysis.statics import StaticTable
from repro.emulator import Trace, run_program
from repro.harness import artifacts, faults
from repro.harness.cachedir import MISS, CacheDir, stable_hash, stage_salt
from repro.kernels.base import (
    DeadnessColumns,
    FusedColumns,
    KillColumns,
    StaticCounts,
)
from repro.isa.assembler import assemble
from repro.lang import CompilerOptions, compile_source
from repro.pipeline import MachineConfig
from repro.pipeline.core import PipelineResult, simulate
from repro.predictors.dead.paths import PathInfo, compute_paths
from repro.workloads import Workload, get_workload, workload_names

__all__ = [
    "CellArtifact",
    "CellSpec",
    "Engine",
    "EngineConfig",
    "configure",
    "get_engine",
    "reset_engine",
    "suite_runs",
]

#: The emulator step budget is part of the trace key: raising it can
#: legitimately change a trace that previously hit the limit.
MAX_STEPS = 10_000_000


# ---------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class EngineConfig:
    """How the engine executes: parallelism, caching, robustness."""

    #: worker processes for independent cells; 1 = serial, no pool
    jobs: int = 1
    #: enable the on-disk stage cache
    cache: bool = True
    #: cache root (created on first store)
    cache_dir: str = ".repro-cache"
    #: per-cell wall-clock timeout in pool mode (seconds)
    cell_timeout: float = 600.0
    #: failed/timed-out pool cells are retried serially this many times
    retries: int = 1
    #: base delay for exponential backoff between retry attempts
    #: (attempt *n* sleeps ``retry_backoff * 2**n`` seconds; 0 = none)
    retry_backoff: float = 0.05
    #: after this many pool faults in one engine lifetime the engine
    #: degrades to serial execution for the rest of the process
    pool_fault_limit: int = 2
    #: report cells that fail even after retries in run metadata and
    #: continue with the surviving cells, instead of aborting the sweep
    partial: bool = False
    #: enable the mmap-backed columnar artifact plane (second cache
    #: tier, :mod:`repro.harness.artifacts`); requires ``cache`` and a
    #: little-endian host, silently off otherwise
    artifacts: bool = True


def _env_int(name: str, default: str) -> int:
    text = os.environ.get(name, default)
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            "%s must be an integer, got %r" % (name, text))


def _env_float(name: str, default: str, positive: bool = False) -> float:
    text = os.environ.get(name, default)
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            "%s must be a number, got %r" % (name, text))
    if positive and not 0 < value < math.inf:
        raise ValueError(
            "%s must be a positive number, got %r" % (name, text))
    return value


def cache_dir_from_env() -> str:
    """The cache root (``REPRO_CACHE_DIR``), read without validating the
    other engine variables: ``runs``, ``cache`` and ``obs`` need
    nothing else."""
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def config_from_env() -> EngineConfig:
    """Engine defaults, overridable through environment variables
    (``REPRO_JOBS``, ``REPRO_CACHE=0``, ``REPRO_CACHE_DIR``,
    ``REPRO_CELL_TIMEOUT``, ``REPRO_RETRIES``, ``REPRO_RETRY_BACKOFF``,
    ``REPRO_PARTIAL=1``, ``REPRO_ARTIFACTS=0``) so embeddings like
    pytest pick them up without plumbing flags.  Malformed numeric
    values and a cell timeout that is not positive raise ``ValueError``
    naming the offending variable."""
    return EngineConfig(
        jobs=_env_int("REPRO_JOBS", "1"),
        cache=os.environ.get("REPRO_CACHE", "1") != "0",
        cache_dir=cache_dir_from_env(),
        cell_timeout=_env_float("REPRO_CELL_TIMEOUT", "600",
                                positive=True),
        retries=_env_int("REPRO_RETRIES", "1"),
        retry_backoff=_env_float("REPRO_RETRY_BACKOFF", "0.05"),
        partial=os.environ.get("REPRO_PARTIAL", "0") == "1",
        artifacts=os.environ.get("REPRO_ARTIFACTS", "1") != "0",
    )


def _plane_for(config: EngineConfig
               ) -> Optional[artifacts.ArtifactPlane]:
    """The artifact plane for *config*, or ``None`` when it is off
    (no cache, disabled, or an unsupported big-endian host)."""
    if config.cache and config.artifacts and artifacts.PLANE_SUPPORTED:
        return artifacts.ArtifactPlane(config.cache_dir)
    return None


# ---------------------------------------------------------------------
# Stage accounting
# ---------------------------------------------------------------------


class StageStats:
    """Per-stage hit/miss/compute-seconds counters (plus totals the
    run metadata wants), written only through :meth:`Engine.note_stage`.
    ``snapshot()``/``delta_since()`` attribute activity to individual
    experiments."""

    def __init__(self):
        self.counts: Dict[str, Dict[str, float]] = {}
        self.instructions = 0
        self.retries = 0
        #: pool-level faults seen (worker crash/hang/timeout or an
        #: unpicklable result payload); drives serial degradation
        self.pool_faults = 0
        #: cells that failed even after retries, in partial mode:
        #: ``[{"cell": ..., "error": ...}, ...]``
        self.failed_cells: List[Dict[str, str]] = []

    def add(self, stage: str, hit: bool, seconds: float) -> None:
        bucket = self.counts.setdefault(
            stage, {"hits": 0, "misses": 0, "seconds": 0.0})
        bucket["hits" if hit else "misses"] += 1
        bucket["seconds"] += seconds

    def hits(self, stage: str) -> int:
        return int(self.counts.get(stage, {}).get("hits", 0))

    def misses(self, stage: str) -> int:
        return int(self.counts.get(stage, {}).get("misses", 0))

    def snapshot(self) -> Dict[str, object]:
        return {
            "counts": {stage: dict(bucket)
                       for stage, bucket in self.counts.items()},
            "instructions": self.instructions,
        }

    def delta_since(self, snapshot: Dict[str, object]
                    ) -> Tuple[Dict[str, Dict[str, object]], int]:
        """(per-stage delta dict, instruction-count delta)."""
        before = snapshot["counts"]
        delta: Dict[str, Dict[str, object]] = {}
        for stage, bucket in self.counts.items():
            old = before.get(stage, {"hits": 0, "misses": 0,
                                     "seconds": 0.0})
            entry = {
                "hits": int(bucket["hits"] - old["hits"]),
                "misses": int(bucket["misses"] - old["misses"]),
                "seconds": round(bucket["seconds"] - old["seconds"], 3),
            }
            if entry["hits"] or entry["misses"]:
                delta[stage] = entry
        return delta, self.instructions - snapshot["instructions"]


# ---------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One independent unit of suite work: a workload at a scale under
    fixed compiler options."""

    workload: str
    scale: float
    options: CompilerOptions

    def describe(self) -> str:
        return "%s@%s[%s]" % (self.workload, self.scale,
                              self.options.to_key())


@dataclass
class CellArtifact:
    """Everything one cell produced, as native objects: the one record
    of a materialized cell.  Its trace and analysis load their program
    and columns on first use (:func:`_materialize_payload`)."""

    spec: CellSpec
    trace: Trace
    analysis: DeadnessAnalysis
    #: the program's verified output (what ``Machine.output`` held)
    output: List[object]
    compile_key: str
    #: the key every downstream stage chains from; ``None`` (a
    #: hand-built cell) runs ``paths``, ``predict`` and ``timing``
    #: uncached
    trace_key: Optional[str]
    analysis_key: str

    @property
    def workload(self) -> Workload:
        return get_workload(self.spec.workload)


def _cached(cache: Optional[CacheDir], stage: str, key: str,
            accept: Optional[Callable[[object], bool]],
            compute: Callable[[], object]) -> Tuple[object, bool]:
    """One cached stage: ``(value, hit)``.  A stored entry that
    *accept* takes is served; otherwise ``compute()`` runs and its value
    is stored.  Without a *cache* every call computes; *accept*
    ``None`` skips the read but still stores."""
    value = (cache.load(stage, key)
             if cache is not None and accept is not None else MISS)
    if value is not MISS and accept(value):
        return value, True
    value = compute()
    if cache is not None:
        cache.store(stage, key, value)
    return value, False


#: the summary counters an analysis entry stores, in entry order
_ANALYSIS_COUNTS = ("n_dynamic", "n_eligible", "n_dead", "n_direct",
                    "n_transitive", "n_dead_stores")


def _bools_to_bytes(values: Sequence[bool]) -> bytes:
    return bytes(bytearray(values))


def _bytes_to_bools(blob: bytes) -> List[bool]:
    return [byte == 1 for byte in blob]


#: trace_key -> (Program, StaticTable); one assemble + static-table
#: build per distinct program per process.  The trace key names the
#: workload and its assembly, so cells whose options compile to the
#: same program share one entry.  The payload computation needs them
#: to emulate, backfill the plane or analyze, and a cell on first use
#: of its program or static table (the objects are immutable in use).
_PROGRAM_MEMO: Dict[str, Tuple["object", "object"]] = {}


def _program_for(trace_key: str, asm: str, name: str):
    """``(program, statics)`` for one compiled cell, memoized."""
    entry = _PROGRAM_MEMO.get(trace_key)
    if entry is None:
        program = assemble(asm, name=name)
        entry = (program, StaticTable(program))
        _PROGRAM_MEMO[trace_key] = entry
    return entry


#: (workload, scale) -> (source, reference output).  Cells of one
#: workload under several compiler options share their inputs, and the
#: generators behind them are deterministic: a pass draws them once.
_INPUTS: Dict[Tuple[str, float], Tuple[str, List[object]]] = {}


def _inputs_for(name: str, scale: float) -> Tuple[str, List[object]]:
    """``(source, expected output)`` of workload *name* at *scale*,
    memoized."""
    entry = _INPUTS.get((name, scale))
    if entry is None:
        workload = get_workload(name)
        entry = (workload.source(scale), workload.reference(scale))
        _INPUTS[(name, scale)] = entry
    return entry


def _bundle_output(bundle) -> "object":
    """A trace bundle's stored emulator output, or :data:`MISS` when
    the pickled column is itself unreadable (treated as a plane miss —
    the checksum already passed, so this is vanishingly rare)."""
    try:
        return artifacts.unpack_output(bundle)
    except Exception:
        return MISS


def _compute_cell_payload(spec: CellSpec,
                          config: EngineConfig,
                          cache: Optional[CacheDir],
                          injected: Tuple[str, ...] = (),
                          plane: Optional[artifacts.ArtifactPlane] = None
                          ) -> Dict[str, object]:
    """Run one cell's compile → trace → analysis chain, using and
    populating the on-disk *cache* (``None``: uncached).  Top-level so
    pool workers can execute it; returns only plainly picklable data.

    The serial path passes the engine's own :class:`CacheDir` and
    plane handles, pool workers per-task ones, so each handle's
    robustness counters tally exactly its caller's work.  *injected*
    carries the worker-level fault points the parent drew for this
    dispatch (:func:`repro.harness.faults.draw_cell_faults`).

    *plane* is the artifact plane (second cache tier): with it, a hot
    cell attaches mmap-backed column bundles instead of unpickling
    lists, and the returned payload carries
    :class:`~repro.harness.artifacts.ArtifactHandle` references
    (``"trace_artifact"``/``"analysis_artifact"``) instead of the
    column data — the cell re-attaches the same bundles by checksum on
    first use of its columns.  ``None`` forces the pickle tier.  The
    payload always carries the analysis counts.
    """
    if "worker.hang" in injected:
        time.sleep(faults.hang_seconds())
    if "worker.crash" in injected:
        raise faults.WorkerCrash(
            "injected worker crash in cell %s" % spec.describe())
    source, expected = _inputs_for(spec.workload, spec.scale)
    stages: Dict[str, Dict[str, object]] = {}

    # -- compile ------------------------------------------------------
    compile_key = stable_hash("compile", spec.workload, source,
                              spec.options.to_key(),
                              stage_salt("compile"))
    started = time.perf_counter()
    asm, hit = _cached(cache, "compile", compile_key,
                       lambda asm: isinstance(asm, str),
                       lambda: compile_source(source, spec.options))
    stages["compile"] = {"hit": hit,
                         "seconds": time.perf_counter() - started}

    # -- trace --------------------------------------------------------
    # Keyed by the program, not by the options that compiled it:
    # options that compile to the same assembly share the trace and
    # every stage chained from it.
    trace_key = stable_hash("trace", spec.workload, asm, str(MAX_STEPS),
                            stage_salt("trace"))

    def program():
        # Assembled only to emulate, to backfill the plane or to
        # analyze: a hit on both stages needs no program.
        return _program_for(trace_key, asm, spec.workload)[0]

    started = time.perf_counter()
    t_key = (artifacts.artifact_key("trace", trace_key)
             if plane is not None else None)
    pcs = taken = addrs = None
    trace_handle = None
    trace_bundle = None
    hit = False
    if plane is not None:
        bundle = plane.attach(t_key)
        if bundle is not None:
            candidate = (_bundle_output(bundle)
                         if artifacts.is_trace_bundle(bundle) else MISS)
            if candidate == expected:
                hit = True
                output = candidate
                trace_handle = bundle.handle(t_key)
                trace_bundle = bundle
            else:
                bundle.close()
    if not hit:
        def emulate() -> Dict[str, object]:
            machine, trace = run_program(program(), max_steps=MAX_STEPS)
            if machine.output != expected:
                raise AssertionError(
                    "workload %r produced %r, expected %r" % (
                        spec.workload, machine.output, expected))
            return {"pcs": trace.pcs, "taken": trace.taken,
                    "addrs": trace.addrs, "output": machine.output}

        entry, hit = _cached(
            cache, "trace", trace_key,
            lambda entry: (isinstance(entry, dict)
                           and entry.get("output") == expected),
            emulate)
        pcs, taken, addrs, output = (entry["pcs"], entry["taken"],
                                     entry["addrs"], entry["output"])
        if plane is not None:
            # Backfill the plane so the next attach (this process or
            # any sibling worker) reads the map instead of unpickling.
            trace_handle = artifacts.store_trace_bundle(
                plane, t_key, program(), pcs, taken, addrs, output)
    stages["trace"] = {"hit": hit,
                       "seconds": time.perf_counter() - started}
    n = trace_bundle.n if trace_bundle is not None else len(pcs)

    # -- analysis -----------------------------------------------------
    analysis_key = stable_hash("analysis", trace_key,
                               stage_salt("analysis"))
    started = time.perf_counter()
    a_key = (artifacts.artifact_key("analysis", analysis_key)
             if plane is not None else None)
    dead_blob = direct_blob = counts = fused_doc = None
    analysis_handle = None
    hit = False
    if plane is not None:
        a_bundle = plane.attach(a_key)
        if a_bundle is not None:
            if artifacts.is_analysis_bundle(a_bundle, n):
                hit = True
                analysis_handle = a_bundle.handle(a_key)
                counts = artifacts.counts_from_bundle(a_bundle)
            a_bundle.close()
    if not hit:
        def analyze() -> Dict[str, object]:
            trace = Trace(program())
            if pcs is None:
                # Trace came from the plane: hydrate its columns once
                # for the analysis pass (the static-index column is
                # read straight off the map).
                trace.pcs = trace_bundle.ints("pcs")
                trace.taken = trace_bundle.bools("taken")
                trace.addrs = trace_bundle.ints("addrs")
            else:
                trace.pcs, trace.taken, trace.addrs = pcs, taken, addrs
            trace.artifact_bundle = trace_bundle
            analysis = analyze_deadness(trace)
            return {"dead": _bools_to_bytes(analysis.dead),
                    "direct": _bools_to_bytes(analysis.direct),
                    "counts": {name: getattr(analysis, name)
                               for name in _ANALYSIS_COUNTS},
                    "fused": _fused_to_doc(analysis.fused)}

        entry, hit = _cached(
            cache, "analysis", analysis_key,
            lambda entry: (isinstance(entry, dict)
                           and len(entry.get("dead", b"")) == n
                           and "fused" in entry),
            analyze)
        dead_blob, direct_blob = entry["dead"], entry["direct"]
        counts, fused_doc = entry["counts"], entry["fused"]
        if plane is not None:
            analysis_handle = artifacts.store_analysis_bundle(
                plane, a_key, n, dead_blob, direct_blob, counts,
                fused_doc)
    stages["analysis"] = {"hit": hit,
                          "seconds": time.perf_counter() - started}
    if trace_bundle is not None:
        trace_bundle.close()

    payload: Dict[str, object] = {
        "compile_key": compile_key,
        "trace_key": trace_key,
        "analysis_key": analysis_key,
        "asm": asm,
        "output": output,
        "n": n,
        "counts": counts,
        "stages": stages,
    }
    if trace_handle is not None:
        payload["trace_artifact"] = trace_handle
    else:
        payload["pcs"] = pcs
        payload["taken"] = taken
        payload["addrs"] = addrs
    if analysis_handle is not None:
        payload["analysis_artifact"] = analysis_handle
    else:
        payload["dead"] = dead_blob
        payload["direct"] = direct_blob
        payload["fused"] = fused_doc
    if "artifact.unpicklable" in injected:
        # Poison the result pipe: the pool's encoder fails to pickle
        # this, the parent sees the error and recomputes serially.
        payload["_poison"] = lambda: None
    return payload


def _worker_obs_config():
    """The ObsConfig pool workers should run under (None = telemetry
    off, no worker-side collection or delta serialization at all).
    Shipping the parent's config keeps the worker's timing-key obs
    fingerprint identical to the parent's, fork or spawn."""
    collector = obs.get_collector()
    return collector.config if collector is not None else None


def _summed(*tallies: Optional[Dict[str, int]]) -> Dict[str, int]:
    """Counter dictionaries added key by key (first-seen key order)."""
    total: Dict[str, int] = {}
    for tally in tallies:
        for name, count in (tally or {}).items():
            total[name] = total.get(name, 0) + count
    return total


def _worker_task(config: EngineConfig, obs_config, body
                 ) -> Dict[str, object]:
    """Run ``body(cache, plane)`` as one pool task on per-task cache
    and plane handles, and add to the dict it returns what the parent
    folds in (:meth:`Engine._absorb_worker_result`): ``"counters"``,
    the task's cache and plane counters and the faults fired while it
    ran, and — observed only — ``"obs_delta"``, the task's spans.  An
    observed task runs under a fresh collector (never the
    fork-inherited copy of the parent's) that it removes afterwards."""
    from repro.obs import delta as obs_delta

    if obs_config is not None:
        obs_delta.install_worker_collector(obs_config)
    fired = faults.fired_counts()
    cache = CacheDir(config.cache_dir) if config.cache else None
    plane = _plane_for(config)
    try:
        result = body(cache, plane)
        result["counters"] = {
            "cache": dict(cache.counters) if cache is not None else {},
            "artifacts": (dict(plane.counters) if plane is not None
                          else {}),
            "faults": {point: count - fired.get(point, 0)
                       for point, count in faults.fired_counts().items()
                       if count != fired.get(point, 0)},
        }
        if obs_config is not None:
            result["obs_delta"] = obs_delta.snapshot_delta()
        return result
    finally:
        if obs_config is not None:
            obs.reset_obs()


def _pool_cell_worker(spec: CellSpec, config: EngineConfig,
                      injected: Tuple[str, ...],
                      obs_config) -> Dict[str, object]:
    """Pool entry point for one cell: the payload of
    :func:`_compute_cell_payload` plus the task's counters and, when
    *obs_config* is set, its telemetry delta (:func:`_worker_task`)."""
    return _worker_task(
        config, obs_config,
        lambda cache, plane: _compute_cell_payload(
            spec, config, cache, injected, plane))


def _fused_to_doc(fused: FusedColumns) -> Dict[str, object]:
    """The fused pass's extra columns as plain picklable data (the
    deadness columns already travel as blobs + counts)."""
    return {
        "distances": fused.kills.distances,
        "unkilled": fused.kills.unkilled,
        "by_provenance": fused.kills.by_provenance,
        "totals": fused.counts.totals,
        "deads": fused.counts.deads,
    }


def _doc_to_fused(doc: Dict[str, object], dead: List[bool],
                  direct: List[bool],
                  counts: Dict[str, int]) -> FusedColumns:
    return FusedColumns(
        deadness=DeadnessColumns(
            dead=dead, direct=direct,
            n_eligible=counts["n_eligible"], n_dead=counts["n_dead"],
            n_direct=counts["n_direct"],
            n_dead_stores=counts["n_dead_stores"]),
        kills=KillColumns(
            distances=doc["distances"], unkilled=doc["unkilled"],
            by_provenance=doc["by_provenance"]),
        counts=StaticCounts(totals=doc["totals"], deads=doc["deads"]))


class _OnFirstUse:
    """An attribute of a materialized cell that loads on first read:
    the read calls the named method of the instance's
    :class:`_CellLoader`, which returns this attribute and the ones
    loaded with it, and stores them in the instance ``__dict__``.  This
    is a non-data descriptor, so later reads find the stored value
    first and never pass through here: a loaded column is a plain
    attribute."""

    def __init__(self, load: str):
        self.load = load

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        instance.__dict__.update(getattr(instance._loader, self.load)())
        return instance.__dict__[self.name]


class _CellLoader:
    """Loads what a materialized cell defers, from the payload that
    materialized it: the assembled program and its static table, the
    trace columns and the analysis columns.  A cell's trace and
    analysis share one loader.

    A plane handle that no longer attaches (file gone, quarantined,
    checksum changed, or the plane off) recomputes the payload once
    through the pickle tier, which itself falls back to emulation, and
    counts one plane ``fallbacks``: a damaged plane can cost time but
    never a result."""

    def __init__(self, spec: CellSpec, payload: Dict[str, object],
                 config: EngineConfig, cache: Optional[CacheDir],
                 plane: Optional[artifacts.ArtifactPlane]):
        self.spec = spec
        self.payload = payload
        self.config = config
        self.cache = cache
        self.plane = plane

    def program(self) -> Dict[str, object]:
        return {"program": _program_for(
            self.payload["trace_key"], self.payload["asm"],
            self.spec.workload)[0]}

    def statics(self) -> Dict[str, object]:
        return {"statics": _program_for(
            self.payload["trace_key"], self.payload["asm"],
            self.spec.workload)[1]}

    def trace_columns(self) -> Dict[str, object]:
        bundle = self._attach("trace_artifact", artifacts.is_trace_bundle)
        if bundle is not None:
            return {"pcs": bundle.ints("pcs"),
                    "taken": bundle.bools("taken"),
                    "addrs": bundle.ints("addrs"),
                    "artifact_bundle": bundle, "_sidx": []}
        payload = self.payload
        return {"pcs": payload["pcs"], "taken": payload["taken"],
                "addrs": payload["addrs"], "artifact_bundle": None,
                "_sidx": []}

    def analysis_columns(self) -> Dict[str, object]:
        n = self.payload["n"]
        bundle = self._attach(
            "analysis_artifact",
            lambda bundle: artifacts.is_analysis_bundle(bundle, n))
        if bundle is not None:
            dead = bundle.bools("dead")
            direct = bundle.bools("direct")
            fused_doc = artifacts.fused_doc_from_bundle(bundle)
            bundle.close()
        else:
            payload = self.payload
            dead = _bytes_to_bools(payload["dead"])
            direct = _bytes_to_bools(payload["direct"])
            fused_doc = payload["fused"]
        return {"dead": dead, "direct": direct,
                "fused": _doc_to_fused(fused_doc, dead, direct,
                                       self.payload["counts"])}

    def _attach(self, name: str,
                complete: Callable[[artifacts.ColumnBundle], bool]
                ) -> Optional[artifacts.ColumnBundle]:
        """The bundle of the payload's handle *name*, or ``None`` when
        the payload carries the columns instead (after the fallback, if
        the handle did not attach)."""
        handle = self.payload.get(name)
        if handle is None:
            return None
        bundle = (self.plane.attach_handle(handle)
                  if self.plane is not None else None)
        if bundle is not None and complete(bundle):
            return bundle
        if bundle is not None:
            bundle.close()
        if self.plane is not None:
            self.plane.counters["fallbacks"] += 1
        self.payload = _compute_cell_payload(self.spec, self.config,
                                             self.cache, (), plane=None)
        return None


class _LazyTrace(Trace):
    """A materialized cell's trace.  Its length is known at once; its
    program and columns load on first use (:class:`_CellLoader`)."""

    program = _OnFirstUse("program")
    pcs = _OnFirstUse("trace_columns")
    taken = _OnFirstUse("trace_columns")
    addrs = _OnFirstUse("trace_columns")
    _sidx = _OnFirstUse("trace_columns")
    artifact_bundle = _OnFirstUse("trace_columns")

    def __init__(self, loader: _CellLoader, n: int):
        # Trace.__init__ does not run: the loader sets what it would.
        self._loader = loader
        self._n = n

    def __len__(self) -> int:
        return self._n


class _LazyAnalysis(DeadnessAnalysis):
    """A materialized cell's analysis.  Its counts are known at once;
    its static table and columns load on first use."""

    statics = _OnFirstUse("statics")
    dead = _OnFirstUse("analysis_columns")
    direct = _OnFirstUse("analysis_columns")
    fused = _OnFirstUse("analysis_columns")

    def __init__(self, trace: _LazyTrace, loader: _CellLoader,
                 counts: Dict[str, int]):
        self.trace = trace
        self._loader = loader
        self.__dict__.update(counts)


def _materialize_payload(spec: CellSpec, payload: Dict[str, object],
                         config: EngineConfig,
                         cache: Optional[CacheDir],
                         plane: Optional[artifacts.ArtifactPlane]
                         ) -> CellArtifact:
    """The cell a payload describes, the same for serial, pooled and
    cache-hit payloads.  Its keys, output, length and analysis counts
    are set now; its program, static table and columns load on first
    use, from the payload's columns or by re-attaching the plane
    bundles its handles name (:class:`_CellLoader`, which also falls
    back to the pickle tier).  So a cell whose results all come from
    stage hits loads none of them."""
    loader = _CellLoader(spec, payload, config, cache, plane)
    trace = _LazyTrace(loader, payload["n"])
    return CellArtifact(
        spec=spec, trace=trace,
        analysis=_LazyAnalysis(trace, loader, payload["counts"]),
        output=payload["output"],
        compile_key=payload["compile_key"],
        trace_key=payload["trace_key"],
        analysis_key=payload["analysis_key"])


def _analysis_fingerprint(analysis: DeadnessAnalysis) -> str:
    """Discriminates differently-parameterized analyses of the same
    trace (e.g. ``track_stores=False``) in timing keys."""
    return "%d,%d,%d" % (analysis.n_dead, analysis.n_direct,
                         analysis.n_dead_stores)


def _simulate_key(trace_key: str, machine_config: MachineConfig,
                  analysis: Optional[DeadnessAnalysis]) -> str:
    fingerprint = _analysis_fingerprint(analysis) if analysis else "-"
    parts = ["timing", trace_key, machine_config.to_key(),
             fingerprint, stage_salt("timing")]
    # Observed simulations carry their timeline inside the cached
    # result; keep them apart from plain entries (and from other
    # sampling configurations).
    obs_fingerprint = obs.timing_fingerprint()
    if obs_fingerprint:
        parts.append(obs_fingerprint)
    return stable_hash(*parts)


def _variant(machine_config: MachineConfig) -> str:
    """``elim`` or ``base``: the timing label of a machine config."""
    return "elim" if machine_config.eliminate else "base"


def _is_pipeline_result(value: object) -> bool:
    return isinstance(value, PipelineResult)


def _certifies(result: PipelineResult) -> bool:
    """Did *result*'s run never wait on its free register count?  The
    core reads that count only to stall rename and to refuse a replay,
    and a replay-mode flush follows only a refusal; so a run with no
    register stall and no flush is also the run of every config that
    differs from it only by more ``phys_regs``."""
    stats = result.stats
    return stats.rename_stalls_preg == 0 and stats.flush_recoveries == 0


def _timing_stage(cache: Optional[CacheDir],
                  certified: Dict[str, PipelineResult], key: str,
                  trace_key: str, trace: Trace,
                  machine_config: MachineConfig,
                  analysis: Optional[DeadnessAnalysis]
                  ) -> Tuple[PipelineResult, bool, bool]:
    """The timing stage for *key* below the engine's memo: ``(result,
    hit, reused)``.  *certified* maps a family (the key without
    ``phys_regs``) to its certified run (:func:`_certifies`) with the
    fewest registers; :meth:`Engine.simulate` keeps one per engine and
    a prefetch batch one per cell.  A miss is served from that run, as
    a copy under *machine_config*, when it has fewer registers, and is
    simulated otherwise; either way it is stored under *key*."""
    family = _simulate_key(trace_key,
                           replace(machine_config, phys_regs=0), analysis)
    earlier = certified.get(family)
    reused = False

    def compute() -> PipelineResult:
        nonlocal reused
        if (earlier is not None
                and earlier.config.phys_regs < machine_config.phys_regs):
            reused = True
            served = copy.deepcopy(earlier)
            served.config = machine_config
            return served
        return simulate(trace, machine_config, analysis)

    result, hit = _cached(cache, "timing", key, _is_pipeline_result,
                          compute)
    if _certifies(result) and (
            earlier is None
            or result.config.phys_regs < earlier.config.phys_regs):
        certified[family] = result
    return result, hit, reused


def _prefetch_sim_worker(args: Tuple[CellSpec,
                                     Tuple[MachineConfig, ...],
                                     EngineConfig, Tuple[str, ...],
                                     "object"]
                         ) -> Dict[str, object]:
    """Pool worker: materialize a (hot-cache) cell once, then run one
    timing simulation per machine config in the batch, persisting each
    and returning ``(key, result)`` pairs for the in-memory memo.
    Batching is the point: the cell's trace/analysis attach (or
    unpickle) once per *batch*, not once per simulation.  Like cell
    dispatch, the batch runs as one :func:`_worker_task` (the parent's
    ObsConfig, so timing keys agree): ``{"results": [...],
    "counters": ..., "obs_delta": ... or absent}``."""
    spec, machine_configs, config, injected, obs_config = args

    def batch(cache, plane) -> Dict[str, object]:
        payload = _compute_cell_payload(spec, config, cache,
                                        injected=injected, plane=plane)
        artifact = _materialize_payload(spec, payload, config, cache,
                                        plane)
        results: List[Tuple[str, PipelineResult]] = []
        certified: Dict[str, PipelineResult] = {}
        for machine_config in machine_configs:
            key = _simulate_key(artifact.trace_key, machine_config,
                                artifact.analysis)
            result, _hit, _reused = _timing_stage(
                cache, certified, key, artifact.trace_key, artifact.trace,
                machine_config, artifact.analysis)
            results.append((key, result))
        return {"results": results}

    return _worker_task(config, obs_config, batch)


# ---------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------


def _pool_context():
    # Resolve REPRO_FAULTS before forking: workers then spend the
    # parent's shared budgets instead of each reading a plan of its own.
    faults.active()
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover (non-fork platforms)
        return multiprocessing.get_context("spawn")


class Engine:
    """Stage-aware executor for experiment cells (module docstring)."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config if config is not None else config_from_env()
        self.cache: Optional[CacheDir] = (
            CacheDir(self.config.cache_dir) if self.config.cache
            else None)
        #: the mmap-backed columnar artifact plane (``None`` when off);
        #: its ``counters`` feed :meth:`robustness`
        self.plane = _plane_for(self.config)
        self.stats = StageStats()
        #: set once ``pool_fault_limit`` pool faults accumulate: the
        #: engine stops using worker pools for the rest of its life
        self._pool_degraded = False
        #: in-memory memo for timing results (tiny objects); serves
        #: repeated simulations and prefetched no-cache results
        self._sim_memo: Dict[str, PipelineResult] = {}
        #: family key -> certified timing result (:func:`_timing_stage`)
        self._certified: Dict[str, PipelineResult] = {}
        #: (scale, options key, workload names) -> cells (:meth:`suite`)
        self._suites: Dict[Tuple[float, str, Tuple[str, ...]],
                           List[CellArtifact]] = {}
        #: worker pid -> stable small ordinal for telemetry labels
        #: (``worker="0"``, ``worker="1"``, ... in first-seen order)
        self._worker_ids: Dict[int, str] = {}
        #: pool tasks' robustness counters, summed per group
        #: (``cache``, ``artifacts``, ``faults``); see :meth:`robustness`
        self._worker_counters: Dict[str, Dict[str, int]] = {}

    # -- cells --------------------------------------------------------

    def suite(self, scale: float, options: CompilerOptions,
              names: Optional[Sequence[str]] = None
              ) -> List[CellArtifact]:
        """The cells of the named workloads (default: the curated
        suite) at *scale* under *options*, memoized per engine."""
        names = tuple(workload_names() if names is None else names)
        memo_key = (scale, options.to_key(), names)
        cells = self._suites.get(memo_key)
        if cells is None:
            cells = self.run_cells([CellSpec(workload=name, scale=scale,
                                             options=options)
                                    for name in names])
            self._suites[memo_key] = cells
        return cells

    def run_cells(self, specs: Sequence[CellSpec],
                  partial: Optional[bool] = None) -> List[CellArtifact]:
        """Execute every cell; results in input order regardless of
        worker completion order.

        With *partial* (default: ``config.partial``) a cell that still
        fails after every retry is dropped from the result list and
        reported in ``stats.failed_cells`` (and from there in run
        metadata), instead of aborting the whole sweep.
        """
        if partial is None:
            partial = self.config.partial
        if (self.config.jobs <= 1 or len(specs) <= 1
                or self._pool_degraded):
            payloads = [self._serial_cell(spec, partial)
                        for spec in specs]
        else:
            payloads = self._run_cells_pool(specs, partial)
        materialized = []
        for spec, payload in zip(specs, payloads):
            if payload is None:  # failed cell in partial mode
                continue
            # A pooled cell's stage spans carry the worker that ran it.
            attrs = {"cell": spec.describe()}
            if "worker" in payload:
                attrs["worker"] = payload["worker"]
            for stage, info in payload["stages"].items():
                self.note_stage(stage, info["hit"], info["seconds"],
                                **attrs)
            self.stats.instructions += payload["n"]
            materialized.append(_materialize_payload(
                spec, payload, self.config, self.cache, self.plane))
        return materialized

    def _cell_with_retry(self, spec: CellSpec) -> Dict[str, object]:
        """Compute one cell serially, retrying with exponential
        backoff (``retry_backoff * 2**attempt`` seconds between
        attempts).  A persistent failure still raises."""
        attempts = 1 + max(self.config.retries, 0)
        for attempt in range(attempts):
            try:
                return _compute_cell_payload(
                    spec, self.config, self.cache,
                    faults.draw_cell_faults(pool=False),
                    plane=self.plane)
            except Exception:
                if attempt + 1 == attempts:
                    raise
                self.stats.retries += 1
                delay = self.config.retry_backoff * (2 ** attempt)
                if delay > 0:
                    time.sleep(delay)
        raise AssertionError("unreachable")

    def _serial_cell(self, spec: CellSpec,
                     partial: bool) -> Optional[Dict[str, object]]:
        """One cell through the retry ladder; in partial mode a
        persistent failure is recorded instead of raised."""
        try:
            return self._cell_with_retry(spec)
        except Exception as error:
            if not partial:
                raise
            self.stats.failed_cells.append({
                "cell": spec.describe(),
                "error": "%s: %s" % (type(error).__name__, error),
            })
            return None

    def _worker_label(self, pid) -> str:
        label = self._worker_ids.get(pid)
        if label is None:
            label = str(len(self._worker_ids))
            self._worker_ids[pid] = label
        return label

    def _absorb_worker_result(self, result: Dict[str, object]) -> None:
        """Fold one pool result's task counters into the engine's
        worker tallies and merge its telemetry delta, if any, into the
        parent collector under a ``worker="<n>"`` label, which then
        replaces the delta as ``result["worker"]``."""
        for group, counts in result.pop("counters", {}).items():
            self._worker_counters[group] = _summed(
                self._worker_counters.get(group), counts)
        delta = result.pop("obs_delta", None)
        collector = obs.get_collector()
        if delta is None or collector is None:
            return
        from repro.obs import delta as obs_delta

        result["worker"] = self._worker_label(delta.get("pid"))
        obs_delta.merge_delta(collector, delta, worker=result["worker"])

    def _note_pool_fault(self) -> None:
        """One pool-level fault (crash/hang/timeout/unpicklable
        result); enough of them trips serial degradation."""
        self.stats.pool_faults += 1
        if self.stats.pool_faults >= max(self.config.pool_fault_limit,
                                         1):
            self._pool_degraded = True

    def _run_cells_pool(self, specs: Sequence[CellSpec],
                        partial: bool
                        ) -> List[Optional[Dict[str, object]]]:
        """Fan cells across a pool with supervision: each faulted cell
        is recomputed serially in the parent, and after
        ``pool_fault_limit`` faults the engine abandons the pool (this
        call and every later one run serially — graceful degradation
        on machines where workers keep dying)."""
        workers = min(self.config.jobs, len(specs))
        payloads: List[Optional[Dict[str, object]]] = \
            [None] * len(specs)
        done = [False] * len(specs)
        context = _pool_context()
        try:
            pool = context.Pool(processes=workers)
        except Exception:
            self._note_pool_fault()
            self._pool_degraded = True
            return [self._serial_cell(spec, partial) for spec in specs]
        try:
            obs_config = _worker_obs_config()
            pending = [
                pool.apply_async(
                    _pool_cell_worker,
                    (spec, self.config,
                     faults.draw_cell_faults(pool=True), obs_config))
                for spec in specs]
            for index, handle in enumerate(pending):
                try:
                    payloads[index] = handle.get(
                        self.config.cell_timeout)
                    self._absorb_worker_result(payloads[index])
                    done[index] = True
                except Exception:
                    # Worker crash, unpicklable result, or timeout:
                    # recompute this cell serially in the parent.  A
                    # genuine bug still raises on the retry (unless
                    # partial reporting is on).
                    self._note_pool_fault()
                    self.stats.retries += 1
                    payloads[index] = self._serial_cell(specs[index],
                                                        partial)
                    done[index] = True
                    if self._pool_degraded:
                        break
        finally:
            pool.terminate()
            pool.join()
        for index, spec in enumerate(specs):
            if not done[index]:
                payloads[index] = self._serial_cell(spec, partial)
        return payloads

    # -- timing stage -------------------------------------------------

    def simulate(self, trace: Trace, machine_config: MachineConfig,
                 analysis: Optional[DeadnessAnalysis] = None,
                 trace_key: Optional[str] = None,
                 name: Optional[str] = None) -> PipelineResult:
        """The cached timing stage (:func:`_timing_stage` below the
        memo).  Without a *trace_key* (ad-hoc traces) the simulation
        runs uncached and is no stage event.  *name* labels the stage
        span and the timeline (default: the trace's program name); a
        cell passes its workload, so a hit loads nothing."""
        if name is None:
            name = trace.program.name
        if trace_key is None:
            result = simulate(trace, machine_config, analysis)
            self._note_timeline(
                "adhoc:%s:%s" % (name, machine_config.to_key()),
                name, machine_config, result)
            return result
        key = _simulate_key(trace_key, machine_config, analysis)
        started = time.perf_counter()
        result = self._sim_memo.get(key)
        hit = result is not None
        attrs = {"workload": name, "variant": _variant(machine_config)}
        if not hit:
            result, hit, reused = _timing_stage(
                self.cache, self._certified, key, trace_key, trace,
                machine_config, analysis)
            self._sim_memo[key] = result
            if reused:
                attrs["reused"] = True
        self.note_stage("timing", hit, time.perf_counter() - started,
                        **attrs)
        self._note_timeline(key, name, machine_config, result)
        return result

    @staticmethod
    def _note_timeline(key: str, name: str,
                       machine_config: MachineConfig,
                       result: PipelineResult) -> None:
        """Register an observed simulation's sampled pipeline timeline
        under the workload *name*.  It rides inside the cached
        :class:`PipelineResult`, so hits register it too; the collector
        deduplicates repeat requests by *key*."""
        collector = obs.get_collector()
        timeline_doc = getattr(result, "timeline", None)
        if collector is not None and timeline_doc:
            collector.add_timeline(
                key, "%s/%s" % (name, _variant(machine_config)), name,
                timeline_doc, result.stats.to_dict())

    def prefetch_simulations(
            self, items: Sequence[Tuple[CellArtifact, MachineConfig]]
    ) -> None:
        """Warm the timing stage for (cell, machine-config) pairs in
        parallel.  Purely an accelerator: serial ``simulate`` calls
        afterwards hit the memo or disk; any prefetch failure silently
        falls back."""
        if self.config.jobs <= 1:
            return
        #: cell -> (spec, pending machine configs), in first-seen order;
        #: each group becomes ONE worker task that materializes the
        #: cell once and runs every simulation
        grouped: Dict[str, Tuple[CellSpec, List[MachineConfig]]] = {}
        for run, machine_config in items:
            if run.trace_key is None:
                continue
            key = _simulate_key(run.trace_key, machine_config,
                                run.analysis)
            if key in self._sim_memo:
                continue
            if self.cache and os.path.exists(
                    self.cache.entry_path("timing", key)):
                continue
            grouped.setdefault(run.spec.describe(),
                               (run.spec, []))[1].append(machine_config)
        if not grouped or self._pool_degraded:
            return
        obs_config = _worker_obs_config()
        todo = [(cell_spec, tuple(machine_configs), self.config,
                 faults.draw_cell_faults(pool=True), obs_config)
                for cell_spec, machine_configs in grouped.values()]
        workers = min(self.config.jobs, len(todo))
        context = _pool_context()
        with context.Pool(processes=workers) as pool:
            pending = [pool.apply_async(_prefetch_sim_worker, (args,))
                       for args in todo]
            for args, handle in zip(todo, pending):
                try:
                    # One timeout budget per simulation in the batch.
                    batch_result = handle.get(
                        self.config.cell_timeout * len(args[1]))
                except Exception:
                    # Purely an accelerator: a faulted prefetch cell
                    # just falls back to the serial simulate path.
                    self._note_pool_fault()
                    continue
                self._absorb_worker_result(batch_result)
                self._sim_memo.update(batch_result["results"])

    # -- paths stage --------------------------------------------------

    def paths_for(self, run: CellArtifact, path_bits: int) -> PathInfo:
        """The cached future-path precomputation for one cell (uncached,
        and no stage event, without a trace key or a cache)."""
        def compute() -> PathInfo:
            return compute_paths(run.trace, run.analysis.statics,
                                 path_bits=path_bits)

        if run.trace_key is None or self.cache is None:
            return compute()
        key = stable_hash("paths", run.trace_key, str(path_bits),
                          stage_salt("paths"))
        return self.cached_stage(
            "paths", key, lambda paths: isinstance(paths, PathInfo),
            compute, workload=run.spec.workload)

    def cached_stage(self, stage: str, key: str,
                     accept: Optional[Callable[[object], bool]],
                     compute: Callable[[], object],
                     **attrs: object) -> object:
        """A parent-side stage through :func:`_cached`, accounted by
        :meth:`note_stage` with its hit and seconds."""
        started = time.perf_counter()
        value, hit = _cached(self.cache, stage, key, accept, compute)
        self.note_stage(stage, hit, time.perf_counter() - started,
                        **attrs)
        return value

    def note_stage(self, stage: str, hit: bool, seconds: float,
                   **attrs: object) -> None:
        """Account one stage event — a cell's ``compile``, ``trace`` or
        ``analysis``, or one ``paths``, ``predict`` (in
        :mod:`repro.harness.sweep`) or ``timing`` request: the stage
        stats, plus, when telemetry is on, one ``stage:<stage>`` span
        carrying *hit* and *attrs*.  The only writer of either."""
        self.stats.add(stage, hit, seconds)
        collector = obs.get_collector()
        if collector is not None:
            collector.tracer.add("stage:%s" % stage, seconds, hit=hit,
                                 **attrs)

    # -- bookkeeping --------------------------------------------------

    def clear_memos(self) -> None:
        """Drop in-memory memoized cells and results (tests bound
        memory)."""
        self._suites.clear()
        self._sim_memo.clear()
        self._certified.clear()
        _PROGRAM_MEMO.clear()
        _INPUTS.clear()

    def describe(self) -> Dict[str, object]:
        """Engine configuration for run metadata."""
        return {
            "jobs": self.config.jobs,
            "cache": self.config.cache,
            "cache_dir": os.path.abspath(self.config.cache_dir),
            "cell_timeout": self.config.cell_timeout,
            "retries": self.config.retries,
            "partial": self.config.partial,
            "artifacts": self.plane is not None,
        }

    def robustness(self) -> Dict[str, object]:
        """Everything the robustness contract promises to report:
        retry/pool-fault/degradation counters, cache store-error and
        quarantine tallies, artifact-plane counters, injected-fault
        counts — each summed over the parent and every pool task —
        and any cells dropped in partial mode.  Lands in run metadata
        and is rendered by ``obs report``."""
        workers = self._worker_counters
        document: Dict[str, object] = {
            "retries": self.stats.retries,
            "pool_faults": self.stats.pool_faults,
            "degraded_to_serial": self._pool_degraded,
            "failed_cells": [dict(cell)
                             for cell in self.stats.failed_cells],
            "faults_injected": _summed(faults.fired_counts(),
                                       workers.get("faults")),
        }
        if self.cache is not None:
            document["cache"] = _summed(self.cache.counters,
                                        workers.get("cache"))
        if self.plane is not None:
            document["artifacts"] = _summed(self.plane.counters,
                                            workers.get("artifacts"))
        return document


# ---------------------------------------------------------------------
# Module-level singleton
# ---------------------------------------------------------------------

_ENGINE: Optional[Engine] = None


def get_engine() -> Engine:
    """The process-wide engine (created from the environment on first
    use; reconfigured by :func:`configure`)."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = Engine()
    return _ENGINE


def peek_engine() -> Optional[Engine]:
    """The process-wide engine if one exists, without creating one."""
    return _ENGINE


def configure(config: EngineConfig) -> Engine:
    """Install a fresh engine with *config* (CLI and benchmarks)."""
    global _ENGINE
    _ENGINE = Engine(config)
    return _ENGINE


def reset_engine() -> None:
    """Forget the singleton (next :func:`get_engine` re-reads env)."""
    global _ENGINE
    _ENGINE = None


def suite_runs(scale: float = 1.0, opt_level: int = 2,
               max_hoist: int = 4,
               scalar_opt: bool = False) -> List[CellArtifact]:
    """The curated suite's cells through the process-wide engine
    (:meth:`Engine.suite`)."""
    return get_engine().suite(scale, CompilerOptions(
        opt_level=opt_level, max_hoist=max_hoist, scalar_opt=scalar_opt))
