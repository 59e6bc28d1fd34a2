"""The sweep executor: shared per-trace state across sweep points.

A *sweep* evaluates many configurations — predictor geometries (F5,
A1, A2), predictor designs (F6), machine variants (F7, F8, A3, E1,
E2) — over the same suite of analyzed traces.
:class:`SweepExecutor` lets every sweep point reuse the per-trace
inputs, and :class:`~repro.harness.runtable.RunTableContext` hands it
to every cell:

* the decoded trace and deadness labels ride in the
  :class:`~repro.harness.runs.SuiteRun` artifacts (engine-cached);
* the per-PC **prediction stream** (eligible instances + conditional
  branches, extracted by the kernel layer) is memoized per analysis;
* :class:`~repro.predictors.dead.paths.PathInfo` objects are memoized
  in-process per (trace, path_bits) on top of the engine's disk cache;
* each predictor evaluation is the cached ``predict`` stage
  (:meth:`SweepExecutor.predict`): a warm run reads five counters per
  cell instead of walking, and one geometry under several experiment
  labels is walked once;
* timing goes through the engine's cached ``simulate``, with the
  base/elim pairing logic (:func:`elim_variant`) kept here so every
  experiment builds variants the same way.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro import kernels, obs
from repro.harness.cachedir import MISS, stable_hash, stage_salt
from repro.harness.engine import Engine, get_engine
from repro.harness.runs import SuiteRun
from repro.pipeline import MachineConfig
from repro.pipeline.core import PipelineResult
from repro.predictors.dead.base import DeadPredictionStats, DeadPredictor
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
    """Share every per-trace derivation across the points of
    predictor and timing sweeps."""

    def __init__(self, engine: Optional[Engine] = None):
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

    # -- predictor evaluation -----------------------------------------

    def predict(self, run: SuiteRun, predictor: DeadPredictor,
                path_bits: int) -> DeadPredictionStats:
        """The cached ``predict`` stage: a freshly built *predictor*
        walked over *run* with *path_bits*-bit future paths.

        The key chains from the run's trace key and adds the
        predictor's :meth:`~repro.predictors.dead.base.DeadPredictor.key`
        and *path_bits*, so a hit needs neither the stream nor the
        paths.  With telemetry on the stage is never read: every cell
        walks and registers its probe.  The walk may still store, since
        a probe does not change the predictions.  Runs without a trace
        key and engines without a cache walk uncached.
        """
        trace_key = getattr(run, "cache_key", None)
        cache = self.engine.cache
        if trace_key is None or cache is None:
            return self._walk(run, predictor, path_bits)
        key = stable_hash("predict", trace_key, predictor.key(),
                          str(path_bits), stage_salt("predict"))
        started = time.perf_counter()
        stats = MISS if obs.enabled() else cache.load("predict", key)
        hit = isinstance(stats, DeadPredictionStats)
        if not hit:
            stats = self._walk(run, predictor, path_bits)
            cache.store("predict", key, stats)
        self.engine.note_stage("predict", hit,
                               time.perf_counter() - started,
                               workload=run.trace.program.name)
        return stats

    def _walk(self, run: SuiteRun, predictor: DeadPredictor,
              path_bits: int) -> DeadPredictionStats:
        return evaluate_predictor(run.analysis, predictor,
                                  self.paths_for(run, path_bits),
                                  stream=self.stream_for(run))

    # -- timing sweeps ------------------------------------------------

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
