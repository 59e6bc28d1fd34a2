"""Cross-process telemetry deltas: worker → parent aggregation.

Pool workers (``repro.harness.engine``) execute cells and timing
batches in separate processes, so the spans they record into *their*
obs collector (``kernel:<pass>`` above all) would die with the worker.
A compact, picklable **delta** rides back with each pool result
instead:

* the worker installs a *fresh* collector per task (never the
  fork-inherited copy of the parent's, whose accumulated spans would
  double-count on merge) via :func:`install_worker_collector`;
* after the task, :func:`snapshot_delta` serializes the collector's
  span list into plain data;
* the parent merges each delta with :func:`merge_delta`, grafting the
  worker's spans into its tree stamped ``worker="<n>"`` — counting
  spans across workers therefore reproduces the serial run's record
  (the parity test in ``tests/test_obs_plane.py`` pins this).

When telemetry is off the worker is handed ``obs_config=None``, no
collector is installed, nothing is serialized, and the result payload
carries no delta at all (``tests/test_obs_plane.py`` guards it).
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = [
    "WIRE_SCHEMA",
    "install_worker_collector",
    "merge_delta",
    "snapshot_delta",
]

#: bump when the delta wire shape changes; a mismatched delta is
#: dropped on merge instead of corrupting the parent's span tree
WIRE_SCHEMA = 2


def install_worker_collector(obs_config) -> None:
    """Install a fresh collector for one worker task (or remove any
    fork-inherited one when *obs_config* is ``None``, so a worker of
    an observed parent never records into a dead copy)."""
    from repro import obs

    obs.configure_obs(obs_config)


def snapshot_delta() -> Optional[Dict[str, object]]:
    """The active collector's spans as one picklable document (``None``
    when telemetry is off — the caller then ships nothing).  Spans
    travel serialized with worker-local ids that
    :meth:`~repro.obs.spans.SpanTracer.merge` remaps on arrival."""
    from repro import obs

    collector = obs.get_collector()
    if collector is None:
        return None
    return {
        "schema": WIRE_SCHEMA,
        "pid": os.getpid(),
        "spans": [span.to_dict() for span in collector.tracer.spans],
    }


def merge_delta(collector, delta: Dict[str, object],
                worker: str) -> None:
    """Graft one worker delta's span forest under *collector*'s current
    span (id-remapped, each span stamped with the worker label).  A
    delta from a different wire schema is dropped whole."""
    if not isinstance(delta, dict) or \
            delta.get("schema") != WIRE_SCHEMA:
        return
    spans = delta.get("spans") or []
    if spans:
        collector.tracer.merge(spans, worker=worker)
