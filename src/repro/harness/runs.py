"""Shared, cached workload runs for the experiments.

Every experiment starts from the same artifact: each workload compiled,
executed, traced, and labelled by the exact deadness analysis.  The
heavy lifting lives in :mod:`repro.harness.engine` — a stage-aware
executor with an on-disk content-addressed cache and optional
multiprocessing fan-out — and this module adds a per-process memo so a
session running several experiments pays for reconstruction once per
(scale, compiler-options) point.

``Workload.run``'s output cross-check against the pure-Python
reference is preserved by the engine on every trace-stage execution
*and* on every cache hit (a corrupted entry can never satisfy it, so
it falls back to recomputation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis import DeadnessAnalysis
from repro.emulator import Trace
from repro.harness.engine import CellSpec, get_engine, peek_engine
from repro.lang import CompilerOptions
from repro.workloads import Workload, get_workload, workload_names


@dataclass
class SuiteRun:
    """One workload's executed-and-analyzed artifact."""

    workload: Workload
    trace: Trace
    analysis: DeadnessAnalysis
    #: the program's verified output (what ``Machine.output`` held)
    output: List[object]
    #: the engine cell this artifact came from (None for hand-built
    #: runs; lets the timing/paths stages key their caches)
    spec: Optional[CellSpec] = None
    #: content hash of the trace stage (None disables stage caching
    #: downstream of this run)
    cache_key: Optional[str] = None


_MEMO: Dict[Tuple[float, str], List[SuiteRun]] = {}


def suite_runs(scale: float = 1.0, opt_level: int = 2,
               max_hoist: int = 4,
               scalar_opt: bool = False) -> List[SuiteRun]:
    """Run the whole suite through the engine (memoized per process);
    outputs are verified against the pure-Python references on every
    materialization."""
    options = CompilerOptions(opt_level=opt_level, max_hoist=max_hoist,
                              scalar_opt=scalar_opt)
    memo_key = (scale, options.to_key())
    cached = _MEMO.get(memo_key)
    if cached is not None:
        return cached
    specs = [CellSpec(workload=name, scale=scale, options=options)
             for name in workload_names()]
    artifacts = get_engine().run_cells(specs)
    runs = [SuiteRun(workload=get_workload(artifact.spec.workload),
                     trace=artifact.trace,
                     analysis=artifact.analysis,
                     output=artifact.output,
                     spec=artifact.spec,
                     cache_key=artifact.trace_key)
            for artifact in artifacts]
    _MEMO[memo_key] = runs
    return runs


def clear_cache() -> None:
    """Drop memoized runs (tests use this to bound memory)."""
    _MEMO.clear()
    engine = peek_engine()
    # Only clear a live engine's memos: instantiating one here would
    # resurrect the singleton after reset_engine().
    if engine is not None:
        engine.clear_memos()
