"""Experiment harness: one function per figure/table of the paper.

Each experiment function returns an
:class:`~repro.harness.experiments.ExperimentResult` whose ``table``
renders the same rows/series the paper reports and whose ``data`` holds
the raw numbers for tests and further analysis.  ``python -m
repro.harness`` runs any subset from the command line; the files in
``benchmarks/`` wrap each experiment for ``pytest-benchmark``.

Execution is delegated to the stage-aware engine
(:mod:`repro.harness.engine`): compile, trace, analysis, future-path,
and timing stages are individually cached on disk (content-addressed,
``.repro-cache/``) and independent (workload × config) cells fan out
across a multiprocessing pool under ``--jobs N``.  Each CLI invocation
appends one run record to the run log (:mod:`repro.harness.runmeta`);
``repro-harness runs`` and ``repro-harness cache`` inspect it.  See
docs/harness.md for the full guide.

Experiment ids (see DESIGN.md §4): F1-F9 are reconstructed figures,
T1 the machine-configuration table, A1-A6 ablations, E1-E2 extensions.
"""

from repro.harness import faults
from repro.harness.engine import (
    CellArtifact,
    CellSpec,
    Engine,
    EngineConfig,
    configure,
    get_engine,
    suite_runs,
)
from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    run_experiment,
)
from repro.harness.tables import Table

__all__ = [
    "ALL_EXPERIMENTS",
    "CellArtifact",
    "CellSpec",
    "Engine",
    "EngineConfig",
    "ExperimentResult",
    "Table",
    "configure",
    "faults",
    "get_engine",
    "run_experiment",
    "suite_runs",
]
