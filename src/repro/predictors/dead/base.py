"""Predictor interface (one evaluation walk per design) and the
accuracy/coverage statistics derived from a walk's predictions."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:
    from repro.kernels.base import PredictionStream
    from repro.predictors.dead.paths import PathInfo


@dataclass
class DeadPredictionStats:
    """The paper's two headline metrics plus their raw counters.

    * **accuracy** = correct dead predictions / all dead predictions
      (how often acting on a prediction is safe);
    * **coverage** = correctly predicted dead instructions / all dead
      instructions (how much of the opportunity is captured).
    """

    eligible: int = 0
    dead: int = 0
    predicted_dead: int = 0
    true_positives: int = 0
    false_positives: int = 0

    @property
    def accuracy(self) -> float:
        if self.predicted_dead == 0:
            return 1.0
        return self.true_positives / self.predicted_dead

    @property
    def coverage(self) -> float:
        if self.dead == 0:
            return 0.0
        return self.true_positives / self.dead

    def tally(self, predictions: Sequence[bool],
              dead: Sequence[bool]) -> None:
        """Add one walk: its predictions against the deadness labels of
        the same eligible events."""
        predicted = sum(predictions)
        hits = sum(compress(predictions, dead))
        self.eligible += len(dead)
        self.dead += sum(dead)
        self.predicted_dead += predicted
        self.true_positives += hits
        self.false_positives += predicted - hits

    def summary(self) -> str:
        return ("eligible=%d dead=%d predicted=%d accuracy=%.1f%% "
                "coverage=%.1f%%" % (self.eligible, self.dead,
                                     self.predicted_dead,
                                     100 * self.accuracy,
                                     100 * self.coverage))


class DeadPredictor:
    """Interface shared by all dead-instruction predictors.

    :meth:`walk` evaluates the predictor over the eligible events of one
    trace in dynamic order.  Each event is first predicted from the
    *predicted* future path (what the branch predictor supplies at
    rename) and then trained with its deadness label and the *actual*
    resolved path (available at commit).  Each design implements the
    walk as one loop with its index/tag arithmetic inline: it is the
    innermost loop of every predictor experiment.

    ``probe`` is an optional :class:`repro.obs.introspect.PredictorProbe`
    the table designs feed churn events (allocations, evictions) when
    attached; it stays ``None`` outside observed evaluations, so the
    hot path pays one ``is not None`` test on allocation only.
    """

    name = "abstract"
    probe = None
    #: the constructor arguments that decide the walk; :meth:`key`
    #: names each with its value
    key_args: Tuple[str, ...] = ()

    def key(self) -> str:
        """The design and its geometry, as ``ClassName(arg=value,...)``
        over :attr:`key_args`: the predictor's part of the harness's
        ``predict`` stage key.  A freshly built predictor's walk over
        one stream depends on nothing else, so equal keys mean equal
        predictions; the state a walk leaves in the tables is not
        part of it."""
        return "%s(%s)" % (type(self).__name__, ",".join(
            "%s=%r" % (arg, getattr(self, arg)) for arg in self.key_args))

    def walk(self, stream: PredictionStream,
             paths: PathInfo) -> List[bool]:
        """Predict, then train, every eligible event of *stream*;
        return one prediction per event.  *paths* holds the predicted
        and actual future-path signature of every dynamic instruction,
        indexed by ``stream.eligible_index``."""
        raise NotImplementedError

    def storage_bits(self) -> int:
        """Hardware state in bits (for the <5 KB claim)."""
        raise NotImplementedError

    def storage_kb(self) -> float:
        return self.storage_bits() / 8192.0
