"""``repro.obs`` — the in-simulator observability subsystem.

One process-wide :class:`ObsCollector` (created by :func:`configure_obs`
or the ``REPRO_OBS=1`` environment) owns everything telemetry-related:

* a :class:`~repro.obs.spans.SpanTracer` collecting hierarchical
  run → experiment → stage/kernel spans — the single event record:
  every stage execution is one ``stage:<stage>`` span and every kernel
  call one ``kernel:<pass>`` span, and the kernel-pass table of the run
  record and ``obs report`` is aggregated from those spans;
* the pipeline timelines sampled by the simulator and the predictor
  probes recorded by the evaluation walk.

The collector is *cross-process*: pool workers run under a fresh
per-task collector and ship their spans back with each result, which
the parent grafts into its tree stamped ``worker="<n>"``
(:mod:`repro.obs.delta`), so the span record is complete under
``--jobs N``.  Each run's one record, kernel-pass timing included,
lands in the checksummed run log that every run view reads, with a
regression gate (:mod:`repro.obs.history`).

When no collector is configured — the default — every helper in this
module returns ``None`` and the instrumented code paths reduce to one
``is None`` test.

See ``docs/observability.md`` for the full telemetry tour and the
``obs`` CLI subcommands that render stored artifacts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.introspect import PredictorProbe, table_health
from repro.obs.spans import SpanTracer
from repro.obs.timeline import Timeline

__all__ = [
    "ObsCollector",
    "ObsConfig",
    "configure_obs",
    "enabled",
    "get_collector",
    "new_probe",
    "new_timeline",
    "obs_config_from_env",
    "reset_obs",
    "timing_fingerprint",
]


@dataclass(frozen=True)
class ObsConfig:
    """What to collect and at what granularity."""

    #: master switch
    enabled: bool = True
    #: simulator cycles between timeline samples (before decimation)
    sample_interval: int = 256
    #: timeline ring capacity in samples (decimates when full)
    timeline_capacity: int = 512


def obs_config_from_env() -> Optional[ObsConfig]:
    """The default :class:`ObsConfig` when ``REPRO_OBS`` is set (None
    when unset/0)."""
    if os.environ.get("REPRO_OBS", "0") in ("0", ""):
        return None
    return ObsConfig()


class ObsCollector:
    """Everything one observed harness invocation accumulates."""

    def __init__(self, config: ObsConfig):
        self.config = config
        self.tracer = SpanTracer()
        self.timelines: List[Dict[str, object]] = []
        self.probes: List[Dict[str, object]] = []
        self._timeline_keys = set()

    # -- recording ----------------------------------------------------

    def add_timeline(self, key: str, label: str, workload: str,
                     timeline_doc: Dict[str, object],
                     stats_doc: Optional[Dict[str, object]] = None
                     ) -> None:
        """Register one simulation's timeline (deduplicated by the
        timing-stage cache key, so re-reads of a memoized result do
        not duplicate entries)."""
        if key in self._timeline_keys:
            return
        self._timeline_keys.add(key)
        self.timelines.append({
            "key": key,
            "label": label,
            "workload": workload,
            "timeline": timeline_doc,
            "stats": stats_doc or {},
        })

    def add_probe(self, workload: str, predictor: str,
                  probe: PredictorProbe, table) -> None:
        """Register one evaluation walk's predictor introspection."""
        self.probes.append({
            "workload": workload,
            "predictor": predictor,
            "probe": probe.to_dict(),
            "table": table_health(table),
        })

    # -- persistence --------------------------------------------------

    def write(self, obs_dir: str) -> Dict[str, str]:
        """Persist every artifact under *obs_dir*; returns name→path."""
        import json

        os.makedirs(obs_dir, exist_ok=True)
        artifacts: Dict[str, str] = {}

        def emit(name: str, text: str) -> None:
            path = os.path.join(obs_dir, name)
            with open(path, "w") as stream:
                stream.write(text)
            artifacts[name] = path

        emit("spans.jsonl", self.tracer.to_jsonl())
        emit("timelines.json",
             json.dumps({"timelines": self.timelines}, indent=2,
                        sort_keys=True) + "\n")
        emit("predictors.json",
             json.dumps({"probes": self.probes}, indent=2,
                        sort_keys=True) + "\n")
        return artifacts


# ---------------------------------------------------------------------
# Process-wide state
# ---------------------------------------------------------------------

_COLLECTOR: Optional[ObsCollector] = None


def configure_obs(config: Optional[ObsConfig]) -> Optional[ObsCollector]:
    """Install (or, with ``None``/disabled, remove) the collector."""
    global _COLLECTOR
    if config is None or not config.enabled:
        _COLLECTOR = None
    else:
        _COLLECTOR = ObsCollector(config)
    return _COLLECTOR


def reset_obs() -> None:
    """Drop the collector (tests)."""
    configure_obs(None)


def get_collector() -> Optional[ObsCollector]:
    return _COLLECTOR


def enabled() -> bool:
    return _COLLECTOR is not None


def new_timeline() -> Optional[Timeline]:
    """A fresh pipeline timeline per the active config (None when
    telemetry is off — the simulator's whole enable test)."""
    collector = _COLLECTOR
    if collector is None:
        return None
    config = collector.config
    return Timeline(interval=config.sample_interval,
                    capacity=config.timeline_capacity)


def new_probe() -> Optional[PredictorProbe]:
    """A fresh predictor probe (None when telemetry is off)."""
    if _COLLECTOR is None:
        return None
    return PredictorProbe()


def timing_fingerprint() -> str:
    """Discriminates telemetry-bearing timing artifacts in cache keys:
    an observed simulation carries its timeline inside the cached
    ``PipelineResult``, so it must not collide with the plain entry
    (or with a different sampling configuration)."""
    collector = _COLLECTOR
    if collector is None:
        return ""
    return "obs:%d:%d" % (collector.config.sample_interval,
                          collector.config.timeline_capacity)
