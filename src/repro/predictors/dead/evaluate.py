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
"""

from __future__ import annotations

from collections import Counter

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
