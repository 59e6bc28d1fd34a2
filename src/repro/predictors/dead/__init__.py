"""Dead-instruction predictors (the paper's core contribution).

* :class:`PathDeadPredictor` — the paper's design: a tagged, PC-indexed
  table whose entries learn the *future control-flow path* (upcoming
  branch outcomes) under which the instruction's result is dead, plus a
  confidence counter.  At lookup it consumes branch *predictions*; at
  training it consumes resolved outcomes.
* :class:`BimodalDeadPredictor` — the PC-only baseline: a tagged
  confidence counter per static instruction.  It cannot separate the
  useful and useless instances of a partially dead static instruction,
  which is exactly the paper's argument for path refinement.
* :class:`OracleDeadPredictor` — perfect knowledge upper bound.

:func:`compute_paths` precomputes, for every dynamic instruction, the
predicted and the actual outcomes of its next-N branches;
:func:`evaluate_predictor` runs any predictor's ``walk`` over a
labelled trace and reports accuracy (correct dead predictions / all dead predictions) and
coverage (dead instructions identified / all dead instructions), the
paper's two headline metrics; :func:`evaluate_warmup` measures how fast
a flushed predictor recovers them.
"""

from repro.predictors.dead.base import DeadPredictionStats, DeadPredictor
from repro.predictors.dead.evaluate import (
    evaluate_predictor,
    evaluate_warmup,
)
from repro.predictors.dead.paths import PathInfo, compute_paths
from repro.predictors.dead.profile import ProfileDeadPredictor
from repro.predictors.dead.table import (
    BimodalDeadPredictor,
    HistoryDeadPredictor,
    OracleDeadPredictor,
    PathDeadPredictor,
    SignatureDeadPredictor,
)

__all__ = [
    "BimodalDeadPredictor",
    "DeadPredictionStats",
    "DeadPredictor",
    "HistoryDeadPredictor",
    "OracleDeadPredictor",
    "PathDeadPredictor",
    "PathInfo",
    "ProfileDeadPredictor",
    "SignatureDeadPredictor",
    "compute_paths",
    "evaluate_predictor",
    "evaluate_warmup",
]
