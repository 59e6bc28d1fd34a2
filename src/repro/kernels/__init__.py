"""Shared trace-kernel layer: single-pass walks over committed traces.

The hot loops of every analysis consumer — backward deadness, kill
distance, per-static locality counters, the per-PC prediction event
stream — live here as *kernels* over the trace's structure-of-arrays
columns, behind a backend registry:

* ``python``  — the reference backend (:mod:`repro.kernels.ref`), the
  byte-exact port of the original per-consumer loops;
* ``columnar`` — NumPy array operations
  (:mod:`repro.kernels.columnar`); registered only when the optional
  NumPy dependency is importable (``HAVE_NUMPY``), byte-identical by
  contract and enforced by the property suite.

Select a backend with ``REPRO_BACKEND=<name>``, the engine's
``--backend`` flag / :class:`~repro.harness.engine.EngineConfig`, or
:func:`set_default_backend`.  The active backend is salted into the
engine's cache keys (:func:`backend_fingerprint`) so entries never
collide across backends.  See ``docs/architecture.md`` for the layer
diagram and the backend contract.

Module-level helpers bind the kernels to the repo's concrete types:
:func:`decode` builds the :class:`DecodedTrace` (reusing the trace's
cached static-index column), and :func:`prediction_stream_for` memoizes
the per-trace event stream on the analysis object so a sweep derives it
once and every sweep point replays it.
"""

from __future__ import annotations

from typing import Optional

from repro.kernels.base import (
    DeadnessColumns,
    DecodedTrace,
    FusedColumns,
    KernelBackend,
    KillColumns,
    PredictionStream,
    StaticCounts,
    available_backends,
    backend_fingerprint,
    default_backend_name,
    get_backend,
    pass_totals,
    register_backend,
    reset_pass_totals,
    set_default_backend,
)
from repro.kernels.columnar import HAVE_NUMPY
from repro.kernels.ref import PythonBackend

register_backend(PythonBackend())
if HAVE_NUMPY:
    from repro.kernels.columnar import ColumnarBackend

    register_backend(ColumnarBackend())

__all__ = [
    "DeadnessColumns",
    "DecodedTrace",
    "FusedColumns",
    "HAVE_NUMPY",
    "KernelBackend",
    "KillColumns",
    "PredictionStream",
    "StaticCounts",
    "available_backends",
    "backend_fingerprint",
    "decode",
    "default_backend_name",
    "get_backend",
    "pass_totals",
    "prediction_stream_for",
    "register_backend",
    "reset_pass_totals",
    "set_default_backend",
]


def decode(trace, statics=None,
           backend: Optional[KernelBackend] = None) -> DecodedTrace:
    """The decoded micro-op table for *trace*.

    Reuses the trace's cached static-index column when available (any
    :class:`~repro.emulator.trace.Trace`), falling back to the decode
    kernel for duck-typed traces in tests.
    """
    if statics is None:
        from repro.analysis.statics import StaticTable
        statics = StaticTable(trace.program)
    column = getattr(trace, "static_indices", None)
    if column is not None:
        sidx = column()
    else:
        sidx = (backend or get_backend()).static_indices(trace)
    return DecodedTrace(trace=trace, statics=statics, sidx=sidx)


def prediction_stream_for(analysis) -> PredictionStream:
    """The per-PC event stream for an analyzed trace, memoized on the
    analysis object (sweeps share one stream across all points)."""
    stream = getattr(analysis, "_prediction_stream", None)
    if stream is None:
        decoded = decode(analysis.trace, analysis.statics)
        stream = get_backend().prediction_stream(decoded, analysis.dead)
        analysis._prediction_stream = stream
    return stream
