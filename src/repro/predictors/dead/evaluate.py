"""Trace-driven predictor evaluation.

Evaluates a predictor over the *eligible* instructions of one committed
trace (those that produce a register value and have no side effects —
the same population the elimination hardware considers).  The design's
:meth:`~repro.predictors.dead.base.DeadPredictor.walk` visits them in
dynamic order: each is looked up with the predicted future path, then
trained with the resolved outcome and the actual path, mirroring the
lookup-at-rename / train-at-commit timing of the hardware scheme.  The
few-hundred-instruction skew between rename and commit is not modelled
here (the timing simulator models it); for steady-state
accuracy/coverage it is irrelevant.

The statistics and the optional probe's confusion counts are derived
in bulk from the walk's predictions column.

:func:`evaluate_warmup` measures how fast a cold predictor re-learns:
fresh predictors walk the two halves of one stream, as after a context
switch at the trace's midpoint.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import compress
from typing import Callable, List, Tuple

from repro import kernels, obs
from repro.analysis.liveness import DeadnessAnalysis
from repro.kernels.base import PredictionStream
from repro.predictors.dead.base import DeadPredictionStats, DeadPredictor
from repro.predictors.dead.paths import PathInfo, compute_paths


def evaluate_predictor(analysis: DeadnessAnalysis,
                       predictor: DeadPredictor,
                       paths: PathInfo = None,
                       stats: DeadPredictionStats = None,
                       probe=None,
                       stream: PredictionStream = None
                       ) -> DeadPredictionStats:
    """Run *predictor* over one labelled trace; return its statistics.

    Pass an existing *stats* object to accumulate across workloads
    (the paper reports suite-wide accuracy/coverage).

    *probe* is an optional
    :class:`~repro.obs.introspect.PredictorProbe` that additionally
    records per-PC confusion counts and table churn; when telemetry is
    on (``repro.obs``) a probe is created automatically and the
    finished walk is registered with the active collector.

    *stream* is the trace's per-PC event stream
    (:class:`~repro.kernels.base.PredictionStream`); by default the
    memoized stream for *analysis* is used, so sweeping many predictor
    configurations over one trace extracts the events once and each
    configuration walks only the eligible instances and conditional
    branches instead of the full dynamic stream.
    """
    trace = analysis.trace
    if paths is None:
        paths = compute_paths(trace, analysis.statics)
    if stats is None:
        stats = DeadPredictionStats()
    if probe is None:
        probe = obs.new_probe()
    if probe is not None:
        predictor.probe = probe
    if stream is None:
        stream = kernels.prediction_stream_for(analysis)

    predictions = predictor.walk(stream, paths)

    if probe is not None:
        predictor.probe = None
        record = probe.record
        for (pc, predicted, dead), count in Counter(
                zip(stream.eligible_pc, predictions,
                    stream.eligible_dead)).items():
            record(pc, predicted, dead, count)
        collector = obs.get_collector()
        if collector is not None:
            collector.add_probe(trace.program.name, predictor.name,
                                probe, predictor)

    stats.tally(predictions, stream.eligible_dead)
    return stats


def evaluate_warmup(new_predictor: Callable[[], DeadPredictor],
                    stream: PredictionStream, paths: PathInfo,
                    n_dynamic: int, window: int
                    ) -> Tuple[Tuple[int, int], ...]:
    """Predictor warm-up after a cold start, over one trace of
    *n_dynamic* instructions.

    A fresh ``new_predictor()`` walks each half of *stream*: its state
    is cleared at the trace's midpoint, as a context switch would.  The
    result is ``(hits, dead)`` (dead instances predicted dead, dead
    instances) per phase, in dynamic instructions with ``w = window``:
    the warmed-up steady state before the flush (past the first
    ``4w``), then ``[0, w)``, ``[w, 2w)``, ``[2w, 4w)`` and from ``4w``
    on after it.
    """
    index = stream.eligible_index
    dead = stream.eligible_dead
    midpoint = n_dynamic // 2
    # Predictor state only changes on eligible events, so flushing at
    # the first eligible instance past the midpoint is identical to
    # flushing exactly at the midpoint.
    flush = bisect_left(index, midpoint)
    predictions: List[bool] = []
    for start, stop in ((0, flush), (flush, len(index))):
        half = PredictionStream(eligible_index=index[start:stop],
                                eligible_pc=stream.eligible_pc[start:stop],
                                eligible_dead=dead[start:stop])
        predictions += new_predictor().walk(half, paths)
    edges = (4 * window + 1, midpoint, midpoint + window,
             midpoint + 2 * window, midpoint + 4 * window)
    bounds = [bisect_left(index, edge) for edge in edges] + [len(index)]
    return tuple((sum(compress(predictions[start:stop], dead[start:stop])),
                  sum(dead[start:stop]))
                 for start, stop in zip(bounds, bounds[1:]))
