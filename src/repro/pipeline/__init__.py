"""Trace-driven out-of-order superscalar timing simulator.

The machine model (see DESIGN.md §5.5): fetch driven by gshare + a
return-address stack, rename with a physical register file and ROB-walk
recovery, a unified issue queue with oldest-first select, latency-typed
function units, an L1D/L2/memory hierarchy, and in-order commit.
Wrong-path execution is not simulated; a mispredicted branch stalls
fetch from its fetch cycle until it resolves plus a redirect penalty
(standard trace-driven methodology).

:mod:`repro.pipeline.elimination` holds the paper's mechanism, which
the core reads as columns at rename and commit: predicted-dead
instructions skip register allocation, issue, execution, register-file
traffic, and data-cache access; consumer reads of a squashed mapping
trigger rollback recovery.

Entry point: :func:`simulate` over a trace + deadness labels, with a
:class:`MachineConfig` preset (:func:`default_config`,
:func:`contended_config`).
"""

from repro.pipeline.config import (
    MachineConfig,
    contended_config,
    default_config,
)
from repro.pipeline.core import PipelineResult, Simulator, simulate
from repro.pipeline.energy import (
    EnergyReport,
    EnergyWeights,
    energy_of,
    energy_reduction,
)
from repro.pipeline.stats import PipelineStats

__all__ = [
    "EnergyReport",
    "EnergyWeights",
    "MachineConfig",
    "PipelineResult",
    "PipelineStats",
    "Simulator",
    "contended_config",
    "default_config",
    "energy_of",
    "energy_reduction",
    "simulate",
]
