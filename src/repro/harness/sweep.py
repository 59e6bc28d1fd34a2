"""The sweep executor: shared per-trace state across sweep points.

A *sweep* evaluates many configurations — predictor geometries (F5,
A1, A2), predictor designs (F6), machine variants (F7, F8, A3, E1,
E2) — over the same suite of analyzed traces.  Before this layer each
sweep point re-derived everything per configuration: another full-trace
evaluation walk, another future-path load, another pass over statics.
:class:`SweepExecutor` pins the per-trace inputs once and lets every
sweep point reuse them:

* the decoded trace and deadness labels ride in the
  :class:`~repro.harness.runs.SuiteRun` artifacts (engine-cached);
* the per-PC **prediction stream** (eligible instances + conditional
  branches, extracted by the kernel layer) is memoized per analysis,
  so a six-point predictor sweep walks ~n_events × 6 instead of
  n_dynamic × 6;
* :class:`~repro.predictors.dead.paths.PathInfo` objects are memoized
  in-process per (run, path_bits) on top of the engine's disk cache;
* timing sweeps go through the engine's parallel prefetch + cached
  ``simulate``, with the base/elim pairing logic
  (:func:`elim_variant`) kept here so every experiment builds variants
  the same way.  The engine batches prefetch dispatch per cell: all
  sweep points sharing a workload travel to one worker, which
  materializes the cell's trace and analysis once — from the
  mmap-backed artifact plane when it is on
  (:mod:`repro.harness.artifacts`), so sibling workers share one
  physical copy of each trace's columns instead of unpickling their
  own.

Aggregation order is unchanged (suite order, fresh predictor per
workload), so sweep results are byte-identical to the pre-executor
per-point loops.  Each sweep point emits a ``sweep:<label>`` span when
telemetry is on, visible in ``obs report`` / ``obs hotspots``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import kernels, obs
from repro.harness.engine import Engine, get_engine
from repro.harness.runs import SuiteRun
from repro.pipeline import MachineConfig
from repro.pipeline.core import PipelineResult
from repro.predictors.dead.base import DeadPredictionStats
from repro.predictors.dead.evaluate import evaluate_predictor
from repro.predictors.dead.paths import PathInfo

__all__ = ["SweepExecutor", "elim_variant"]


def elim_variant(config: MachineConfig,
                 elim_overrides: Dict[str, object] = None
                 ) -> MachineConfig:
    """The elimination-enabled variant of a machine configuration."""
    overrides = {"eliminate": True}
    if elim_overrides:
        overrides.update(elim_overrides)
    return replace(config, **overrides)


class SweepExecutor:
    """Run predictor and timing sweeps over one suite of runs while
    sharing every per-trace derivation across sweep points."""

    def __init__(self, runs: Sequence[SuiteRun],
                 engine: Optional[Engine] = None):
        self.runs = list(runs)
        self.engine = engine if engine is not None else get_engine()
        #: (cache key or run identity, path_bits) -> PathInfo
        self._paths: Dict[Tuple[object, int], PathInfo] = {}

    # -- shared per-trace state ---------------------------------------

    def paths_for(self, run: SuiteRun, path_bits: int) -> PathInfo:
        """Future-path views, memoized in-process on top of the
        engine's disk-cached paths stage (a sweep hits the disk once
        per (trace, path_bits), not once per sweep point)."""
        key = (getattr(run, "cache_key", None) or id(run), path_bits)
        memo = self._paths.get(key)
        if memo is None:
            memo = self.engine.paths_for(run, path_bits)
            self._paths[key] = memo
        return memo

    def stream_for(self, run: SuiteRun):
        """The trace's per-PC prediction event stream (kernel-extracted,
        memoized on the analysis object)."""
        return kernels.prediction_stream_for(run.analysis)

    # -- predictor sweeps ---------------------------------------------

    def predictor_stats(self, make_predictor, path_bits: int,
                        label: str = "") -> DeadPredictionStats:
        """Aggregate accuracy/coverage over the suite for one sweep
        point; a fresh predictor per workload (the paper evaluates
        benchmarks independently)."""
        started = time.perf_counter()
        stats = DeadPredictionStats()
        for run in self.runs:
            paths = self.paths_for(run, path_bits)
            predictor = make_predictor(run)
            evaluate_predictor(run.analysis, predictor, paths, stats,
                               stream=self.stream_for(run))
        self._note_point("predict", label, time.perf_counter() - started)
        return stats

    # -- timing sweeps ------------------------------------------------

    def prefetch(self, *configs: MachineConfig) -> None:
        """Warm the engine's timing stage for every (run, config) cell
        in parallel (no-op for serial or pool-degraded engines); the
        sweep's own loops then read results back in deterministic
        suite order.  Purely an accelerator: a crashed or hung
        prefetch worker is counted as a pool fault and its cell falls
        back to the serial ``simulate`` path, so sweep results never
        depend on prefetch succeeding (docs/harness.md, "Robustness
        contract")."""
        self.engine.prefetch_simulations(
            [(run, config) for run in self.runs for config in configs])

    def prefetch_pairs(self, *configs: MachineConfig,
                       elim_overrides: Dict[str, object] = None) -> None:
        """Prefetch base + elimination variants of every config."""
        expanded: List[MachineConfig] = []
        for config in configs:
            expanded.append(config)
            expanded.append(elim_variant(config, elim_overrides))
        self.prefetch(*expanded)

    def simulate(self, run: SuiteRun,
                 config: MachineConfig) -> PipelineResult:
        return self.engine.simulate(run.trace, config, run.analysis,
                                    trace_key=run.cache_key)

    def pair(self, run: SuiteRun, config: MachineConfig,
             elim_overrides: Dict[str, object] = None
             ) -> Tuple[PipelineResult, PipelineResult]:
        """(baseline, elimination) timing results for one run."""
        base = self.simulate(run, config)
        elim = self.simulate(run, elim_variant(config, elim_overrides))
        return base, elim

    # -- telemetry ----------------------------------------------------

    def _note_point(self, kind: str, label: str,
                    seconds: float) -> None:
        collector = obs.get_collector()
        if collector is None:
            return
        collector.tracer.add("sweep:%s" % (label or kind), seconds,
                             kind=kind, runs=len(self.runs))
        collector.registry.counter(
            "repro_sweep_points_total", "sweep points executed",
            kind=kind).inc()
        # Point latency as a histogram so a live /metrics scrape
        # (obs.serve) shows sweep progress and pacing mid-run.
        collector.registry.histogram(
            "repro_sweep_point_seconds", "sweep point wall time",
            kind=kind).observe(seconds)
