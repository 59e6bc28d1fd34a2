"""What every sweep shares: the cached ``predict`` stage and the
base/elimination pairing.

Sweeps evaluate many configurations — predictor geometries and designs
(F5, F6, A1, A2), machine variants (F7, F8, A3, E1, E2) — over the same
cells; :class:`~repro.harness.runtable.RunTableContext` calls
:func:`predict` for every predictor cell and :func:`warmup` for every
A6 cell (a warm run reads a few counters instead of walking), and
:func:`elim_variant` for every base/elimination pair.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Sequence, Tuple

from repro import kernels, obs
from repro.harness.cachedir import stable_hash, stage_salt
from repro.harness.engine import CellArtifact, Engine
from repro.pipeline import MachineConfig
from repro.predictors.dead.base import DeadPredictionStats, DeadPredictor
from repro.predictors.dead.evaluate import (
    evaluate_predictor,
    evaluate_warmup,
)
from repro.predictors.dead.paths import PathInfo
from repro.predictors.dead.table import PathDeadPredictor

__all__ = ["elim_variant", "predict", "warmup"]


def elim_variant(config: MachineConfig,
                 elim_overrides: Dict[str, object] = None
                 ) -> MachineConfig:
    """The elimination-enabled variant of a machine configuration."""
    overrides = {"eliminate": True}
    if elim_overrides:
        overrides.update(elim_overrides)
    return replace(config, **overrides)


def _predict_stage(engine: Engine, run: CellArtifact,
                   parts: Sequence[str],
                   accept: Callable[[object], bool],
                   walk: Callable[[], object]) -> object:
    """One ``predict`` entry: the key chains from the cell's trace key
    and adds *parts*, which name the walk, so a hit needs neither the
    stream nor the paths.  With telemetry on the stage is never read:
    every cell walks.  The walk may still store, since telemetry does
    not change what it returns.  Cells without a trace key and engines
    without a cache walk uncached."""
    if run.trace_key is None or engine.cache is None:
        return walk()
    key = stable_hash("predict", run.trace_key, *parts,
                      stage_salt("predict"))
    return engine.cached_stage("predict", key,
                               None if obs.enabled() else accept, walk,
                               workload=run.spec.workload)


def predict(engine: Engine, run: CellArtifact, predictor: DeadPredictor,
            path_bits: int,
            paths_for: Callable[[CellArtifact, int], PathInfo]
            ) -> DeadPredictionStats:
    """The cached ``predict`` stage: a freshly built *predictor*
    walked over the cell *run* with its *path_bits*-bit future paths
    (``paths_for(run, path_bits)``, asked only when the walk runs).
    Keyed by the predictor's
    :meth:`~repro.predictors.dead.base.DeadPredictor.key` and
    *path_bits*; an observed walk registers its probe."""
    def walk() -> DeadPredictionStats:
        return evaluate_predictor(
            run.analysis, predictor, paths_for(run, path_bits),
            stream=kernels.prediction_stream_for(run.analysis))

    return _predict_stage(
        engine, run, (predictor.key(), str(path_bits)),
        lambda stats: isinstance(stats, DeadPredictionStats), walk)


def warmup(engine: Engine, run: CellArtifact, window: int,
           paths_for: Callable[[CellArtifact, int], PathInfo]
           ) -> Tuple[Tuple[int, int], ...]:
    """A6's cell through the cached ``predict`` stage: ``(hits, dead)``
    per phase around a mid-trace flush of fresh path predictors
    (:func:`~repro.predictors.dead.evaluate.evaluate_warmup`), keyed
    by the predictor's ``key()``, its path bits and *window*."""
    predictor = PathDeadPredictor()

    def walk() -> Tuple[Tuple[int, int], ...]:
        return evaluate_warmup(
            PathDeadPredictor,
            kernels.prediction_stream_for(run.analysis),
            paths_for(run, predictor.path_bits), len(run.trace), window)

    return _predict_stage(
        engine, run,
        ("warmup", predictor.key(), str(predictor.path_bits), str(window)),
        lambda phases: isinstance(phases, tuple), walk)
