"""What every sweep shares: the cached ``predict`` stage and the
base/elimination pairing.

Sweeps evaluate many configurations — predictor geometries and designs
(F5, F6, A1, A2), machine variants (F7, F8, A3, E1, E2) — over the same
cells; :class:`~repro.harness.runtable.RunTableContext` calls
:func:`predict` for every predictor cell (a warm run reads five
counters instead of walking) and :func:`elim_variant` for every
base/elimination pair.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict

from repro import kernels, obs
from repro.harness.cachedir import stable_hash, stage_salt
from repro.harness.engine import CellArtifact, Engine
from repro.pipeline import MachineConfig
from repro.predictors.dead.base import DeadPredictionStats, DeadPredictor
from repro.predictors.dead.evaluate import evaluate_predictor
from repro.predictors.dead.paths import PathInfo

__all__ = ["elim_variant", "predict"]


def elim_variant(config: MachineConfig,
                 elim_overrides: Dict[str, object] = None
                 ) -> MachineConfig:
    """The elimination-enabled variant of a machine configuration."""
    overrides = {"eliminate": True}
    if elim_overrides:
        overrides.update(elim_overrides)
    return replace(config, **overrides)


def predict(engine: Engine, run: CellArtifact, predictor: DeadPredictor,
            path_bits: int,
            paths_for: Callable[[CellArtifact, int], PathInfo]
            ) -> DeadPredictionStats:
    """The cached ``predict`` stage: a freshly built *predictor*
    walked over the cell *run* with its *path_bits*-bit future paths
    (``paths_for(run, path_bits)``, asked only when the walk runs).

    The key chains from the cell's trace key and adds the predictor's
    :meth:`~repro.predictors.dead.base.DeadPredictor.key` and
    *path_bits*, so a hit needs neither the stream nor the paths.  With
    telemetry on the stage is never read: every cell walks and
    registers its probe.  The walk may still store, since a probe does
    not change the predictions.  Cells without a trace key and engines
    without a cache walk uncached.
    """
    def walk() -> DeadPredictionStats:
        return evaluate_predictor(
            run.analysis, predictor, paths_for(run, path_bits),
            stream=kernels.prediction_stream_for(run.analysis))

    if run.trace_key is None or engine.cache is None:
        return walk()
    key = stable_hash("predict", run.trace_key, predictor.key(),
                      str(path_bits), stage_salt("predict"))
    accept = None if obs.enabled() else (
        lambda stats: isinstance(stats, DeadPredictionStats))
    return engine.cached_stage("predict", key, accept, walk,
                               workload=run.trace.program.name)
