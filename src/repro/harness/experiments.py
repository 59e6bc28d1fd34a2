"""The experiments: one function per figure/table (DESIGN.md §4).

Every function takes a ``scale`` (workload size multiplier, 1.0 =
default inputs) and returns an :class:`ExperimentResult`.  The tables
mirror what the paper reports; EXPERIMENTS.md records paper-vs-measured
for each.

Execution goes through :mod:`repro.harness.engine`: workload cells
come from :func:`~repro.harness.engine.suite_runs` (cached compile /
trace / analysis stages) and every timing simulation and future-path
precomputation runs through the engine's cached stages, so a hot-cache
rerun of any experiment reuses all of its expensive work while
producing bit-identical tables.

The sweep-shaped experiments (F5-F8, A1-A4, A6, E1, E2, T1) are
*defined as* declarative :class:`~repro.harness.runtable.RunTable`
specs: each declares its factor grid (workload × predictor geometry ×
machine variant × compiler aggressiveness), a per-cell ``measure``
hook, and a ``summarize`` hook that folds the measured grid back into
the canonical table byte-identically to the old hand-written loops.
Running one of them with ``repetitions > 1`` (``repro table run``)
re-measures the grid under shifted seeds and appends mean/CI and
factor-effect tables (:mod:`repro.harness.stats`).  Measurement flows
through the run-table context into the engine's cached stages, so the
stage cache, artifact plane, ``--jobs`` prefetch pool, and fault
supervision all apply unchanged.
"""

from __future__ import annotations

import difflib
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, List, Tuple

from repro.analysis import classify_statics, locality_stats
from repro.harness.engine import suite_runs
from repro.harness.runtable import (
    Factor,
    RunTable,
    RunTableContext,
    RunTableResult,
    run_table_experiment,
)
from repro.harness.sweep import elim_variant
from repro.harness.tables import Table, percent, signed_percent
from repro.kernels.base import PredictionStream
from repro.pipeline import (
    MachineConfig,
    contended_config,
    default_config,
)
from repro.predictors import (
    BimodalDeadPredictor,
    HistoryDeadPredictor,
    DeadPredictionStats,
    OracleDeadPredictor,
    PathDeadPredictor,
    ProfileDeadPredictor,
    # Not called here (walks run in the predict stage, harness/
    # sweep.py), but the span sites of benchmarks/e2e/spans.py look
    # this name up.
    evaluate_predictor,  # noqa: F401
)
from repro.predictors.dead.table import SignatureDeadPredictor
from repro.workloads import workload_names


@dataclass
class ExperimentResult:
    """Rendered tables plus raw data for one experiment."""

    id: str
    title: str
    tables: List[Table] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        header = "== %s: %s ==" % (self.id, self.title)
        return "\n\n".join([header] + [table.render()
                                       for table in self.tables])


# ---------------------------------------------------------------------
# Characterization (F1-F4)
# ---------------------------------------------------------------------


def f1_dead_fraction(scale: float = 1.0) -> ExperimentResult:
    """F1: fraction of committed instructions that are dynamically dead.

    Paper claim: 3-16% across benchmarks.
    """
    table = Table("Dynamically dead instructions (percent of committed)",
                  ["benchmark", "dynamic", "dead%", "direct%",
                   "transitive%", "dead stores"])
    fractions: Dict[str, float] = {}
    total_dyn = total_dead = 0
    for run in suite_runs(scale):
        analysis = run.analysis
        fractions[run.workload.name] = analysis.dead_fraction
        total_dyn += analysis.n_dynamic
        total_dead += analysis.n_dead
        table.add_row(run.workload.name, analysis.n_dynamic,
                      percent(analysis.dead_fraction),
                      percent(analysis.direct_fraction),
                      percent((analysis.n_transitive)
                              / max(analysis.n_dynamic, 1)),
                      analysis.n_dead_stores)
    average = total_dead / max(total_dyn, 1)
    table.add_row("suite", total_dyn, percent(average), "", "", "")
    return ExperimentResult(
        id="F1", title="dynamically dead instruction fraction",
        tables=[table],
        data={"fractions": fractions, "average": average,
              "min": min(fractions.values()),
              "max": max(fractions.values())})


def f2_partially_dead(scale: float = 1.0) -> ExperimentResult:
    """F2: most dead instances come from partially dead statics.

    Paper claim: the majority of dead instances arise from static
    instructions that also produce useful results.
    """
    table = Table("Static-instruction deadness classes",
                  ["benchmark", "statics", "fully dead", "partially dead",
                   "never dead", "dead inst. from partial"])
    shares: Dict[str, float] = {}
    total_dead = total_from_partial = 0
    for run in suite_runs(scale):
        classification = classify_statics(run.analysis)
        shares[run.workload.name] = classification.partial_share
        total_dead += classification.n_dead_instances
        total_from_partial += classification.n_dead_from_partial
        table.add_row(run.workload.name,
                      classification.n_static_executed,
                      classification.n_static_fully_dead,
                      classification.n_static_partially_dead,
                      classification.n_static_never_dead,
                      percent(classification.partial_share))
    suite_share = total_from_partial / max(total_dead, 1)
    table.add_row("suite", "", "", "", "", percent(suite_share))
    return ExperimentResult(
        id="F2", title="partially dead static instructions",
        tables=[table],
        data={"shares": shares, "suite_share": suite_share})


def f3_provenance(scale: float = 1.0) -> ExperimentResult:
    """F3: compiler scheduling manufactures dead instructions.

    Paper claim: compiler optimization (specifically instruction
    scheduling) creates a significant portion of partially dead
    statics.  Compares -O0 (no hoisting) against -O2 and attributes
    dead instances to compiler provenance.
    """
    table = Table("Dead fraction by optimization level and provenance",
                  ["benchmark", "dead% -O0", "dead% -O2", "sched%",
                   "callee-save%", "original%"])
    o0 = {run.workload.name: run.analysis.dead_fraction
          for run in suite_runs(scale, opt_level=0)}
    data: Dict[str, object] = {"o0": o0, "o2": {}, "sched_share": {}}
    for run in suite_runs(scale, opt_level=2):
        name = run.workload.name
        classification = classify_statics(run.analysis)
        provenance = classification.provenance
        data["o2"][name] = run.analysis.dead_fraction
        data["sched_share"][name] = provenance.fraction("sched")
        table.add_row(name, percent(o0[name]),
                      percent(run.analysis.dead_fraction),
                      percent(provenance.fraction("sched")),
                      percent(provenance.fraction("callee-save")),
                      percent(provenance.fraction("original")))
    return ExperimentResult(
        id="F3", title="provenance of dead instructions",
        tables=[table], data=data)


def f4_locality(scale: float = 1.0) -> ExperimentResult:
    """F4: a small set of statics produces most dead instances."""
    table = Table("Static locality of dead instances",
                  ["benchmark", "dead-producing statics",
                   "statics for 50%", "for 80%", "for 90%",
                   "80% as share of executed statics"])
    data: Dict[str, object] = {}
    for run in suite_runs(scale):
        classification = classify_statics(run.analysis)
        locality = locality_stats(classification)
        name = run.workload.name
        data[name] = locality
        table.add_row(name, locality.n_dead_producing_statics,
                      locality.statics_for_coverage[0.5],
                      locality.statics_for_coverage[0.8],
                      locality.statics_for_coverage[0.9],
                      percent(locality.statics_fraction(0.8)))
    return ExperimentResult(
        id="F4", title="static locality of dead instances",
        tables=[table], data=data)


# ---------------------------------------------------------------------
# Run-table helpers (shared by the declarative experiments below)
# ---------------------------------------------------------------------

#: raw DeadPredictionStats counters carried per predictor cell; the
#: summarize hooks sum these ints across workloads, so the aggregate
#: accuracy/coverage (derived properties) are byte-identical to the
#: old shared-stats evaluation loops
_PREDICTOR_COUNTERS = ("eligible", "dead", "predicted_dead",
                       "true_positives", "false_positives")


def _workload_factor() -> Factor:
    return Factor("workload", workload_names())


def _predictor_cell(ctx: RunTableContext, run, predictor,
                    path_bits: int) -> Dict[str, object]:
    """Evaluate one predictor on one workload through the cached
    ``predict`` stage: per-cell accuracy and coverage (the stats
    metrics) plus the raw counters."""
    stats = ctx.predict(run, predictor, path_bits)
    metrics: Dict[str, object] = {
        "accuracy": stats.accuracy, "coverage": stats.coverage}
    for counter in _PREDICTOR_COUNTERS:
        metrics[counter] = getattr(stats, counter)
    return metrics


def _summed_stats(cells) -> DeadPredictionStats:
    """Suite-aggregate stats from per-workload counter cells."""
    total = DeadPredictionStats()
    for cell in cells:
        for counter in _PREDICTOR_COUNTERS:
            setattr(total, counter,
                    getattr(total, counter) + cell[counter])
    return total


# ---------------------------------------------------------------------
# Prediction (F5, F6)
# ---------------------------------------------------------------------

_F5_ENTRIES = (256, 512, 1024, 2048, 4096, 8192)


def _f5_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    entries = point["entries"].payload
    run = ctx.run_for(point["workload"].payload)
    return _predictor_cell(ctx, run, PathDeadPredictor(entries=entries),
                           path_bits=3)


def _f5_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Path predictor: accuracy/coverage vs state",
                  ["entries", "state (KB)", "accuracy", "coverage"])
    data: Dict[int, object] = {}
    for entries in _F5_ENTRIES:
        stats = _summed_stats(result.cells_at(entries=str(entries)))
        state_kb = PathDeadPredictor(entries=entries).storage_kb()
        data[entries] = (state_kb, stats.accuracy, stats.coverage)
        table.add_row(entries, "%.2f" % state_kb,
                      percent(stats.accuracy), percent(stats.coverage))
    return ExperimentResult(
        id="F5", title="predictor accuracy/coverage vs state budget",
        tables=[table], data=data)


F5_TABLE = RunTable(
    id="F5", title="predictor accuracy/coverage vs state budget",
    description="path predictor accuracy/coverage across state budgets"
                " (paper claim: 93% accuracy, >91% coverage, <5 KB)",
    factors=[Factor("entries", _F5_ENTRIES), _workload_factor()],
    metrics=["accuracy", "coverage"],
    measure=_f5_measure, summarize=_f5_summarize)


def f5_predictor_sweep(scale: float = 1.0) -> ExperimentResult:
    """F5: accuracy and coverage versus predictor state budget.

    Paper claim: 93% accuracy while identifying over 91% of dead
    instructions in under 5 KB of state.
    """
    return run_table_experiment(F5_TABLE, scale)


_F6_DESIGNS = [
    ("profile (ideal static)",
     (lambda run: ProfileDeadPredictor(run.analysis), 0.0)),
    ("bimodal (PC only)",
     (lambda run: BimodalDeadPredictor(),
      BimodalDeadPredictor().storage_kb())),
    ("past-history indexed",
     (lambda run: HistoryDeadPredictor(),
      HistoryDeadPredictor().storage_kb())),
    ("signature (1 path/PC)",
     (lambda run: SignatureDeadPredictor(),
      SignatureDeadPredictor().storage_kb())),
    ("path-indexed (paper)",
     (lambda run: PathDeadPredictor(),
      PathDeadPredictor().storage_kb())),
    ("oracle",
     (lambda run: OracleDeadPredictor(run.analysis.dead), 0.0)),
]


def _f6_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    factory, _state_kb = point["design"].payload
    run = ctx.run_for(point["workload"].payload)
    return _predictor_cell(ctx, run, factory(run), path_bits=3)


def _f6_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Predictor design comparison (suite aggregate)",
                  ["design", "state (KB)", "accuracy", "coverage"])
    data: Dict[str, object] = {}
    for name, (_factory, state_kb) in _F6_DESIGNS:
        stats = _summed_stats(result.cells_at(design=name))
        data[name] = (stats.accuracy, stats.coverage)
        table.add_row(name, "%.2f" % state_kb,
                      percent(stats.accuracy), percent(stats.coverage))
    return ExperimentResult(
        id="F6", title="predictor design comparison",
        tables=[table], data=data)


F6_TABLE = RunTable(
    id="F6", title="predictor design comparison",
    description="bimodal/history/signature/path/oracle designs,"
                " suite-aggregate accuracy and coverage",
    factors=[Factor("design", _F6_DESIGNS), _workload_factor()],
    metrics=["accuracy", "coverage"],
    measure=_f6_measure, summarize=_f6_summarize)


def f6_predictor_compare(scale: float = 1.0) -> ExperimentResult:
    """F6: future control flow is what makes the predictor work.

    Compares the PC-only bimodal baseline, the single-signature design,
    the paper's path-indexed predictor, and the oracle.
    """
    return run_table_experiment(F6_TABLE, scale)


# ---------------------------------------------------------------------
# Elimination (F7, F8)
# ---------------------------------------------------------------------

_F7_REDUCTIONS = ("preg_alloc_reduction", "preg_free_reduction",
                  "rf_read_reduction", "rf_write_reduction",
                  "dcache_access_reduction", "dcache_miss_reduction")


def _f7_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    run = ctx.run_for(point["workload"].payload)
    base, elim = ctx.pair(run, default_config())
    sb, se = base.stats, elim.stats
    reductions = (
        1 - se.preg_allocs / max(sb.preg_allocs, 1),
        1 - se.preg_frees / max(sb.preg_frees, 1),
        1 - se.rf_reads / max(sb.rf_reads, 1),
        1 - se.rf_writes / max(sb.rf_writes, 1),
        1 - se.dcache_accesses / max(sb.dcache_accesses, 1),
        # A small workload can miss zero times in the baseline;
        # report no reduction rather than a vacuous 100%.
        1 - se.dcache_misses / sb.dcache_misses
        if sb.dcache_misses else 0.0,
    )
    metrics: Dict[str, object] = dict(zip(_F7_REDUCTIONS, reductions))
    metrics["eliminated"] = se.eliminated / max(sb.committed, 1)
    return metrics


def _f7_prefetch(ctx: RunTableContext) -> None:
    ctx.prefetch_pairs(ctx.suite(), default_config())


def _f7_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Resource reductions, default machine (base -> elim)",
                  ["benchmark", "preg allocs", "preg frees", "RF reads",
                   "RF writes", "D$ accesses", "D$ misses",
                   "eliminated%"])
    sums = [0.0] * 6
    data: Dict[str, object] = {}
    names = workload_names()
    for name in names:
        cell = result.cell(workload=name)
        reductions = tuple(cell[key] for key in _F7_REDUCTIONS)
        for index, value in enumerate(reductions):
            sums[index] += value
        data[name] = reductions
        table.add_row(name, *[percent(r) for r in reductions],
                      percent(cell["eliminated"]))
    averages = [total / len(names) for total in sums]
    table.add_row("average", *[percent(a) for a in averages], "")
    data["averages"] = averages
    return ExperimentResult(
        id="F7", title="resource utilization reductions",
        tables=[table], data=data)


F7_TABLE = RunTable(
    id="F7", title="resource utilization reductions",
    description="per-resource utilization reductions from elimination"
                " on the default machine",
    factors=[_workload_factor()],
    metrics=list(_F7_REDUCTIONS) + ["eliminated"],
    measure=_f7_measure, summarize=_f7_summarize,
    prefetch=_f7_prefetch)


def f7_resources(scale: float = 1.0) -> ExperimentResult:
    """F7: resource-utilization reductions from elimination.

    Paper claim: reductions averaging over 5% and sometimes exceeding
    10% in physical-register management, register-file read and write
    traffic, and data-cache accesses.
    """
    return run_table_experiment(F7_TABLE, scale)


_F8_MACHINES = [("contended", contended_config()),
                ("default", default_config())]


def _f8_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    run = ctx.run_for(point["workload"].payload)
    config = point["machine"].payload
    base, elim = ctx.pair(run, config)
    return {"base_ipc": base.stats.ipc, "elim_ipc": elim.stats.ipc,
            "speedup": elim.stats.ipc / base.stats.ipc - 1,
            "recoveries": elim.stats.recoveries}


def _f8_prefetch(ctx: RunTableContext) -> None:
    ctx.prefetch_pairs(ctx.suite(), contended_config(),
                       default_config())


def _f8_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Speedup from elimination",
                  ["benchmark", "contended base IPC", "contended speedup",
                   "default speedup", "recoveries"])
    data: Dict[str, object] = {"contended": {}, "default": {}}
    geo_contended = geo_default = 1.0
    names = workload_names()
    for name in names:
        contended = result.cell(workload=name, machine="contended")
        default = result.cell(workload=name, machine="default")
        speedup_c = contended["speedup"]
        speedup_d = default["speedup"]
        geo_contended *= 1 + speedup_c
        geo_default *= 1 + speedup_d
        data["contended"][name] = speedup_c
        data["default"][name] = speedup_d
        table.add_row(name, "%.3f" % contended["base_ipc"],
                      signed_percent(speedup_c),
                      signed_percent(speedup_d),
                      contended["recoveries"])
    n = len(names)
    mean_contended = geo_contended ** (1.0 / n) - 1
    mean_default = geo_default ** (1.0 / n) - 1
    table.add_row("geomean", "", signed_percent(mean_contended),
                  signed_percent(mean_default), "")
    data["mean_contended"] = mean_contended
    data["mean_default"] = mean_default
    return ExperimentResult(
        id="F8", title="speedup under resource contention",
        tables=[table], data=data)


F8_TABLE = RunTable(
    id="F8", title="speedup under resource contention",
    description="elimination speedup on contended vs default machines"
                " (paper claim: ~3.6% average under contention)",
    factors=[_workload_factor(), Factor("machine", _F8_MACHINES)],
    metrics=["base_ipc", "elim_ipc", "speedup", "recoveries"],
    measure=_f8_measure, summarize=_f8_summarize,
    prefetch=_f8_prefetch)


def f8_speedup(scale: float = 1.0) -> ExperimentResult:
    """F8: speedup on a resource-contended machine.

    Paper claim: performance improves by an average of 3.6% on an
    architecture exhibiting resource contention (and little on a
    generously provisioned one).
    """
    return run_table_experiment(F8_TABLE, scale)


_T1_ROWS: List[Tuple[str, Callable[[MachineConfig], str]]] = [
    ("pipeline width (fetch/rename/issue/commit)",
     lambda c: "%d/%d/%d/%d" % (c.fetch_width, c.rename_width,
                                c.issue_width, c.commit_width)),
    ("ROB / IQ / LSQ", lambda c: "%d / %d / %d" %
     (c.rob_size, c.iq_size, c.lsq_size)),
    ("physical registers", lambda c: str(c.phys_regs)),
    ("ALU / MUL / DIV / branch units", lambda c: "%d/%d/%d/%d" %
     (c.alu_units, c.mul_units, c.div_units, c.branch_units)),
    ("memory ports / RF read ports", lambda c: "%d / %d" %
     (c.mem_ports, c.rf_read_ports)),
    ("branch predictor", lambda c: "gshare %d entries, %d-bit hist" %
     (c.gshare_entries, c.gshare_history)),
    ("L1D", lambda c: "%d sets x %d ways x %dB, %d cycles" %
     (c.l1d_sets, c.l1d_ways, c.l1d_line, c.l1d_latency)),
    ("L2 / memory latency", lambda c: "%d / %d cycles" %
     (c.l2_latency, c.memory_latency)),
    ("dead predictor", lambda c: "%d entries, %d path bits" %
     (c.dead_predictor.entries, c.dead_predictor.path_bits)),
]

_T1_MACHINES = [("default", default_config()),
                ("contended", contended_config())]


def _t1_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    config = point["machine"].payload
    return {"phys_regs": config.phys_regs, "rob_size": config.rob_size,
            "iq_size": config.iq_size, "lsq_size": config.lsq_size,
            "mem_ports": config.mem_ports}


def _t1_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Simulated machine configurations",
                  ["parameter", "default", "contended"])
    configs = {label: config for label, config in _T1_MACHINES}
    for label, getter in _T1_ROWS:
        table.add_row(label, getter(configs["default"]),
                      getter(configs["contended"]))
    return ExperimentResult(id="T1", title="machine configuration",
                            tables=[table], data={})


T1_TABLE = RunTable(
    id="T1", title="machine configuration",
    description="the simulated machine configurations (default and"
                " contended geometries)",
    factors=[Factor("machine", _T1_MACHINES)],
    metrics=["phys_regs", "rob_size", "iq_size", "lsq_size",
             "mem_ports"],
    measure=_t1_measure, summarize=_t1_summarize)


def t1_machine_config(scale: float = 1.0) -> ExperimentResult:
    """T1: the simulated machine configurations."""
    return run_table_experiment(T1_TABLE, scale)


# ---------------------------------------------------------------------
# Ablations (A1-A3)
# ---------------------------------------------------------------------

_A1_PATH_BITS = (0, 1, 2, 3, 4, 5, 6)


def _a1_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    path_bits = point["path_bits"].payload
    run = ctx.run_for(point["workload"].payload)
    return _predictor_cell(ctx, run,
                           PathDeadPredictor(path_bits=path_bits),
                           path_bits=max(path_bits, 1))


def _a1_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Path length ablation (path predictor, 2048 entries)",
                  ["path bits", "accuracy", "coverage"])
    data: Dict[int, object] = {}
    for path_bits in _A1_PATH_BITS:
        stats = _summed_stats(result.cells_at(path_bits=str(path_bits)))
        data[path_bits] = (stats.accuracy, stats.coverage)
        table.add_row(path_bits, percent(stats.accuracy),
                      percent(stats.coverage))
    return ExperimentResult(id="A1", title="future path length ablation",
                            tables=[table], data=data)


A1_TABLE = RunTable(
    id="A1", title="future path length ablation",
    description="how much future control flow the path predictor"
                " needs (0-6 path bits)",
    factors=[Factor("path_bits", _A1_PATH_BITS), _workload_factor()],
    metrics=["accuracy", "coverage"],
    measure=_a1_measure, summarize=_a1_summarize)


def a1_path_length(scale: float = 1.0) -> ExperimentResult:
    """A1: how much future control flow does the predictor need?"""
    return run_table_experiment(A1_TABLE, scale)


_A2_POINTS = ((1, 1), (2, 1), (2, 2), (2, 3), (3, 5), (3, 7))


def _a2_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    conf_bits, threshold = point["confidence"].payload
    run = ctx.run_for(point["workload"].payload)
    return _predictor_cell(
        ctx, run,
        PathDeadPredictor(conf_bits=conf_bits, threshold=threshold),
        path_bits=3)


def _a2_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Confidence threshold ablation (path predictor)",
                  ["conf bits", "threshold", "accuracy", "coverage"])
    data: Dict[object, object] = {}
    for conf_bits, threshold in _A2_POINTS:
        label = "%d/%d" % (conf_bits, threshold)
        stats = _summed_stats(result.cells_at(confidence=label))
        data[(conf_bits, threshold)] = (stats.accuracy, stats.coverage)
        table.add_row(conf_bits, threshold, percent(stats.accuracy),
                      percent(stats.coverage))
    return ExperimentResult(id="A2", title="confidence threshold ablation",
                            tables=[table], data=data)


A2_TABLE = RunTable(
    id="A2", title="confidence threshold ablation",
    description="confidence counter geometry: coverage traded for"
                " accuracy",
    factors=[Factor("confidence",
                    [("%d/%d" % point, point) for point in _A2_POINTS]),
             _workload_factor()],
    metrics=["accuracy", "coverage"],
    measure=_a2_measure, summarize=_a2_summarize)


def a2_confidence(scale: float = 1.0) -> ExperimentResult:
    """A2: confidence threshold trades coverage for accuracy."""
    return run_table_experiment(A2_TABLE, scale)


_A3_VARIANTS = [
    ("replay (default)", {}),
    ("flush, 12-cycle penalty", {"recovery_mode": "flush"}),
    ("flush, 24-cycle penalty", {"recovery_mode": "flush",
                                 "recovery_penalty": 24}),
]


def _a3_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    overrides = point["recovery"].payload
    run = ctx.run_for(point["workload"].payload)
    base, elim = ctx.pair(run, contended_config(), overrides)
    return {"speedup": elim.stats.ipc / base.stats.ipc - 1}


def _a3_prefetch(ctx: RunTableContext) -> None:
    ctx.prefetch(ctx.suite(), contended_config(),
                 *[elim_variant(contended_config(), overrides)
                   for _label, overrides in _A3_VARIANTS])


def _a3_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Recovery ablation: contended-machine geomean speedup",
                  ["recovery", "geomean speedup", "worst benchmark"])
    data: Dict[str, object] = {}
    names = workload_names()
    for label, _overrides in _A3_VARIANTS:
        geo = 1.0
        worst_name, worst = "", 1.0
        for name in names:
            speedup = result.cell(recovery=label,
                                  workload=name)["speedup"]
            geo *= 1 + speedup
            if speedup < worst:
                worst, worst_name = speedup, name
        mean = geo ** (1.0 / len(names)) - 1
        data[label] = mean
        table.add_row(label, signed_percent(mean),
                      "%s (%s)" % (worst_name, signed_percent(worst)))
    return ExperimentResult(id="A3", title="recovery cost sensitivity",
                            tables=[table], data=data)


A3_TABLE = RunTable(
    id="A3", title="recovery cost sensitivity",
    description="recovery mechanism sensitivity: replay vs flush with"
                " 12/24-cycle penalties",
    factors=[Factor("recovery", _A3_VARIANTS), _workload_factor()],
    metrics=["speedup"],
    measure=_a3_measure, summarize=_a3_summarize,
    prefetch=_a3_prefetch)


def a3_recovery(scale: float = 1.0) -> ExperimentResult:
    """A3: recovery mechanism sensitivity (replay vs flush)."""
    return run_table_experiment(A3_TABLE, scale)


_A4_HOISTS = (0, 2, 4, 8)


def _a4_options(hoist: int) -> Dict[str, int]:
    return {"opt_level": 2 if hoist else 0,
            "max_hoist": max(hoist, 1)}


def _a4_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    hoist = point["max_hoist"].payload
    name = point["workload"].payload
    config = contended_config()
    run = ctx.run_for(name, **_a4_options(hoist))
    # The normalization baseline: the unscheduled (-O0, default
    # hoisting limits) machine without elimination.
    reference = ctx.run_for(name, opt_level=0)
    base, elim = ctx.pair(run, config)
    ref = ctx.simulate(reference, config)
    return {"base_cycles": base.stats.cycles,
            "elim_cycles": elim.stats.cycles,
            "ref_cycles": ref.stats.cycles,
            "n_dead": run.analysis.n_dead,
            "n_dynamic": run.analysis.n_dynamic,
            "base_ratio": base.stats.cycles / ref.stats.cycles,
            "elim_ratio": elim.stats.cycles / ref.stats.cycles}


def _a4_prefetch(ctx: RunTableContext) -> None:
    config = contended_config()
    ctx.prefetch(ctx.suite(opt_level=0), config)
    for hoist in _A4_HOISTS:
        ctx.prefetch_pairs(ctx.suite(**_a4_options(hoist)), config)


def _a4_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Scheduling aggressiveness vs elimination "
                  "(contended machine, cycles normalized to -O0 base)",
                  ["max hoist", "dead%", "cycles (base)",
                   "cycles (elim)", "elim recovers"])
    data: Dict[int, object] = {}
    names = workload_names()
    for hoist in _A4_HOISTS:
        geo_base = geo_elim = 1.0
        dead_total = dyn_total = 0
        for name in names:
            cell = result.cell(max_hoist=str(hoist), workload=name)
            norm = cell["ref_cycles"]
            geo_base *= cell["base_cycles"] / norm
            geo_elim *= cell["elim_cycles"] / norm
            dead_total += cell["n_dead"]
            dyn_total += cell["n_dynamic"]
        n = len(names)
        base_ratio = geo_base ** (1.0 / n)
        elim_ratio = geo_elim ** (1.0 / n)
        if base_ratio > 1.0:
            recovered = (base_ratio - elim_ratio) / (base_ratio - 1.0)
            recovered_text = percent(recovered)
        else:
            recovered_text = "--"
        data[hoist] = (dead_total / dyn_total, base_ratio, elim_ratio)
        table.add_row(hoist, percent(dead_total / dyn_total),
                      "%.3fx" % base_ratio, "%.3fx" % elim_ratio,
                      recovered_text)
    return ExperimentResult(
        id="A4", title="scheduling aggressiveness vs elimination",
        tables=[table], data=data)


A4_TABLE = RunTable(
    id="A4", title="scheduling aggressiveness vs elimination",
    description="scheduler aggressiveness (hoist limit) vs contended"
                " cycles, with and without elimination",
    factors=[Factor("max_hoist", _A4_HOISTS), _workload_factor()],
    metrics=["base_ratio", "elim_ratio"],
    measure=_a4_measure, summarize=_a4_summarize,
    prefetch=_a4_prefetch)


def a4_scheduling(scale: float = 1.0) -> ExperimentResult:
    """A4: elimination underwrites aggressive scheduling.

    The paper's forward-looking claim: "our scheme frees future
    compilers from the need to consider the costs of dead instructions,
    enabling more aggressive code motion."  We sweep the scheduler's
    aggressiveness (instructions hoisted per branch arm) and measure
    total contended-machine cycles, normalized per benchmark to the
    unscheduled (-O0) baseline machine without elimination.  Without
    elimination, aggressive hoisting costs cycles (the dead instances
    consume contended resources); with elimination most of that cost
    comes back.
    """
    return run_table_experiment(A4_TABLE, scale)


def a5_static_dce(scale: float = 1.0) -> ExperimentResult:
    """A5: compile-time optimization cannot remove dynamic deadness.

    Running classic scalar passes (copy propagation + static dead-code
    elimination, `repro.lang.optimize`) before scheduling shrinks the
    *instruction count* a little, but the dynamically dead fraction is
    essentially unchanged: static DCE can only delete values dead on
    every path, while the paper's deadness lives on the dynamically
    taken paths of partially dead instructions.
    """
    table = Table("Static scalar optimization vs dynamic deadness",
                  ["benchmark", "dyn. instrs removed", "dead% (plain)",
                   "dead% (+scalar opt)"])
    data: Dict[str, object] = {}
    plain_dead = opt_dead = 0
    plain_dyn = opt_dyn = 0
    plain_runs = suite_runs(scale)
    opt_runs = suite_runs(scale, scalar_opt=True)
    for plain_run, opt_run in zip(plain_runs, opt_runs):
        plain = plain_run.analysis
        optimized = opt_run.analysis
        removed = 1 - len(opt_run.trace) / len(plain_run.trace)
        name = plain_run.workload.name
        data[name] = (removed, plain.dead_fraction,
                      optimized.dead_fraction)
        plain_dead += plain.n_dead
        opt_dead += optimized.n_dead
        plain_dyn += plain.n_dynamic
        opt_dyn += optimized.n_dynamic
        table.add_row(name, percent(removed),
                      percent(plain.dead_fraction),
                      percent(optimized.dead_fraction))
    suite = (1 - opt_dyn / plain_dyn, plain_dead / plain_dyn,
             opt_dead / opt_dyn)
    data["suite"] = suite
    table.add_row("suite", percent(suite[0]), percent(suite[1]),
                  percent(suite[2]))
    return ExperimentResult(
        id="A5", title="static DCE vs dynamic deadness",
        tables=[table], data=data)


def f9_kill_distance(scale: float = 1.0) -> ExperimentResult:
    """F9: how far away a dead value's killer is.

    The verified-commit rule (DESIGN.md §5.6) means an eliminated
    instruction must see its overwriter rename before it can retire;
    this characterization shows the killer is nearby for the dominant
    scheduler-hoisted population and far for callee-save restores —
    the population the strike filter learns to skip.
    """
    from repro.analysis import kill_distances

    table = Table("Kill distance of dead register writes "
                  "(dynamic instructions to the overwriter)",
                  ["benchmark", "killed", "median", "p90",
                   "within 64", "sched median", "callee-save median"])
    data: Dict[str, object] = {}
    for run in suite_runs(scale):
        stats = kill_distances(run.analysis)
        data[run.workload.name] = stats

        def median_of(tag):
            values = sorted(stats.by_provenance.get(tag, []))
            if not values:
                return "--"
            return str(values[len(values) // 2])

        table.add_row(run.workload.name, len(stats.distances),
                      stats.percentile(0.5) or "--",
                      stats.percentile(0.9) or "--",
                      percent(stats.within(64)),
                      median_of("sched"), median_of("callee-save"))
    return ExperimentResult(
        id="F9", title="kill-distance characterization",
        tables=[table], data=data)


_A6_WINDOW = 2000
_A6_BUCKETS = ("steady (pre-flush)", "0-2k after", "2k-4k after",
               "4k-8k after", "8k+ after")
#: metric-safe keys per bucket, in bucket order
_A6_KEYS = ("steady", "b0_2k", "b2k_4k", "b4k_8k", "b8k")


def _a6_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    run = ctx.run_for(point["workload"].payload)
    paths = ctx.paths_for(run, 3)
    stream = ctx.stream_for(run)
    index = stream.eligible_index
    dead = stream.eligible_dead
    midpoint = len(run.trace) // 2
    window = _A6_WINDOW
    # Predictor state only changes on eligible events, so flushing at
    # the first eligible instance past the midpoint is identical to
    # flushing exactly at the midpoint: each half of the stream is
    # walked by a fresh predictor (the second after the context
    # switch).
    flush = bisect_left(index, midpoint)
    predictions: List[bool] = []
    for start, stop in ((0, flush), (flush, len(index))):
        half = PredictionStream(eligible_index=index[start:stop],
                                eligible_pc=stream.eligible_pc[start:stop],
                                eligible_dead=dead[start:stop])
        predictions += PathDeadPredictor().walk(half, paths)
    # Bucket edges in dynamic instructions, one bucket per key; only
    # warmed-up pre-flush instructions (past four windows) count.
    edges = (4 * window + 1, midpoint, midpoint + window,
             midpoint + 2 * window, midpoint + 4 * window)
    bounds = [bisect_left(index, edge) for edge in edges] + [len(index)]
    metrics: Dict[str, object] = {}
    for key, start, stop in zip(_A6_KEYS, bounds, bounds[1:]):
        metrics["%s_hits" % key] = sum(compress(predictions[start:stop],
                                                dead[start:stop]))
        metrics["%s_dead" % key] = sum(dead[start:stop])
    hits, dead_count = metrics["b0_2k_hits"], metrics["b0_2k_dead"]
    metrics["post_flush_coverage"] = \
        hits / dead_count if dead_count else 0.0
    return metrics


def _a6_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Coverage around a mid-trace predictor flush",
                  ["phase", "coverage"])
    data: Dict[str, float] = {}
    names = workload_names()
    for key, bucket in zip(_A6_KEYS, _A6_BUCKETS):
        hits = dead = 0
        for name in names:
            cell = result.cell(workload=name)
            hits += cell["%s_hits" % key]
            dead += cell["%s_dead" % key]
        coverage = hits / dead if dead else 0.0
        data[bucket] = coverage
        table.add_row(bucket, percent(coverage))
    return ExperimentResult(
        id="A6", title="predictor warm-up after a cold start",
        tables=[table], data=data)


A6_TABLE = RunTable(
    id="A6", title="predictor warm-up after a cold start",
    description="coverage in windows after a mid-trace predictor"
                " flush (context-switch cost)",
    factors=[_workload_factor()],
    metrics=["post_flush_coverage"],
    measure=_a6_measure, summarize=_a6_summarize)


def a6_warmup(scale: float = 1.0) -> ExperimentResult:
    """A6: predictor warm-up after a cold start (context switch).

    The predictor's state is cleared at the midpoint of every trace
    (as a context switch would) and coverage is measured in windows of
    dynamic instructions after the flush.  Because the dead-producing
    static working set is tiny (F4) and the confidence threshold is 2,
    the predictor re-warms within a few thousand instructions — state
    loss on a context switch costs almost nothing.
    """
    return run_table_experiment(A6_TABLE, scale)


def _e1_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    from repro.pipeline import energy_of, energy_reduction

    run = ctx.run_for(point["workload"].payload)
    base, elim = ctx.pair(run, default_config())
    report = energy_of(base)
    biggest = max(report.by_component, key=report.by_component.get)
    return {"energy_reduction": energy_reduction(base, elim),
            "eliminated": (elim.stats.eliminated
                           / max(base.stats.committed, 1)),
            "biggest_component": biggest}


def _e1_prefetch(ctx: RunTableContext) -> None:
    ctx.prefetch_pairs(ctx.suite(), default_config())


def _e1_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Activity-energy reduction from elimination "
                  "(default machine)",
                  ["benchmark", "energy reduction", "eliminated%",
                   "biggest component"])
    data: Dict[str, float] = {}
    total = 0.0
    names = workload_names()
    for name in names:
        cell = result.cell(workload=name)
        reduction = cell["energy_reduction"]
        data[name] = reduction
        total += reduction
        table.add_row(name, percent(reduction),
                      percent(cell["eliminated"]),
                      cell["biggest_component"])
    average = total / len(names)
    data["average"] = average
    table.add_row("average", percent(average), "", "")
    return ExperimentResult(
        id="E1", title="activity-energy reduction",
        tables=[table], data=data)


E1_TABLE = RunTable(
    id="E1", title="activity-energy reduction",
    description="activity-energy proxy reduction from elimination on"
                " the default machine",
    factors=[_workload_factor()],
    metrics=["energy_reduction", "eliminated"],
    measure=_e1_measure, summarize=_e1_summarize,
    prefetch=_e1_prefetch)


def e1_energy(scale: float = 1.0) -> ExperimentResult:
    """E1: the energy implication of the resource reductions.

    The paper motivates elimination partly as a power technique; this
    extension quantifies it with the activity-energy proxy of
    `repro.pipeline.energy` (ratios only; see that module's docstring).
    """
    return run_table_experiment(E1_TABLE, scale)


_E2_REGS = (44, 48, 56, 72, 104, 160)


def _e2_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    phys_regs = point["phys_regs"].payload
    run = ctx.run_for(point["workload"].payload)
    base, elim = ctx.pair(run, contended_config(phys_regs=phys_regs))
    return {"base_ipc": base.stats.ipc, "elim_ipc": elim.stats.ipc,
            "speedup": elim.stats.ipc / base.stats.ipc - 1}


def _e2_prefetch(ctx: RunTableContext) -> None:
    ctx.prefetch_pairs(ctx.suite(),
                       *[contended_config(phys_regs=regs)
                         for regs in _E2_REGS])


def _e2_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Geomean speedup vs physical-register headroom "
                  "(contended machine)",
                  ["phys regs (spare)", "base geomean IPC",
                   "elim speedup"])
    data: Dict[int, object] = {}
    names = workload_names()
    for phys_regs in _E2_REGS:
        geo_base = geo_speedup = 1.0
        for name in names:
            cell = result.cell(phys_regs=str(phys_regs), workload=name)
            geo_base *= cell["base_ipc"]
            geo_speedup *= cell["elim_ipc"] / cell["base_ipc"]
        n = len(names)
        base_ipc = geo_base ** (1.0 / n)
        speedup = geo_speedup ** (1.0 / n) - 1
        data[phys_regs] = (base_ipc, speedup)
        table.add_row("%d (%d)" % (phys_regs, phys_regs - 32),
                      "%.3f" % base_ipc, signed_percent(speedup))
    return ExperimentResult(
        id="E2", title="speedup vs renaming headroom",
        tables=[table], data=data)


E2_TABLE = RunTable(
    id="E2", title="speedup vs renaming headroom",
    description="elimination speedup vs physical-register headroom on"
                " the contended machine",
    factors=[Factor("phys_regs", _E2_REGS), _workload_factor()],
    metrics=["base_ipc", "elim_ipc", "speedup"],
    measure=_e2_measure, summarize=_e2_summarize,
    prefetch=_e2_prefetch)


def e2_register_scaling(scale: float = 1.0) -> ExperimentResult:
    """E2: elimination's profit versus renaming headroom.

    The paper's speedup lives on "an architecture exhibiting resource
    contention"; this extension turns that into a curve by sweeping
    the physical-register count of the contended machine.  The fewer
    spare registers, the more each suppressed allocation is worth —
    until the machine is so starved that the baseline crawls for other
    reasons too.
    """
    return run_table_experiment(E2_TABLE, scale)


# ---------------------------------------------------------------------
# The generated-corpus grid (run tables over gen:... workloads)
# ---------------------------------------------------------------------

_G1_WORKLOADS = ("gen:s1", "gen:s2")
_G1_MACHINES = [("contended", contended_config()),
                ("default", default_config())]


def _g1_measure(ctx: RunTableContext, point) -> Dict[str, object]:
    run = ctx.run_for(point["workload"].payload)
    config = point["machine"].payload
    base, elim = ctx.pair(run, config)
    return {"dead_fraction": run.analysis.dead_fraction,
            "base_ipc": base.stats.ipc,
            "speedup": elim.stats.ipc / base.stats.ipc - 1,
            "resolved_workload": run.workload.name}


def _g1_summarize(result: RunTableResult) -> ExperimentResult:
    table = Table("Generated-corpus elimination grid",
                  ["workload", "machine", "dead%", "base IPC",
                   "speedup"])
    for cell in result.cells_at():
        table.add_row(cell.labels["workload"], cell.labels["machine"],
                      percent(cell["dead_fraction"]),
                      "%.3f" % cell["base_ipc"],
                      signed_percent(cell["speedup"]))
    return ExperimentResult(
        id="G1", title="generated-corpus elimination grid",
        tables=[table], data={})


G1_TABLE = RunTable(
    id="G1", title="generated-corpus elimination grid",
    description="seeded generated workloads x machine geometry;"
                " repetitions draw fresh programs per seed",
    factors=[Factor("workload", _G1_WORKLOADS),
             Factor("machine", _G1_MACHINES)],
    metrics=["dead_fraction", "base_ipc", "speedup"],
    measure=_g1_measure, summarize=_g1_summarize)


ALL_EXPERIMENTS: Dict[str, Callable[[float], ExperimentResult]] = {
    "F1": f1_dead_fraction,
    "F2": f2_partially_dead,
    "F3": f3_provenance,
    "F4": f4_locality,
    "F5": f5_predictor_sweep,
    "F6": f6_predictor_compare,
    "F7": f7_resources,
    "F8": f8_speedup,
    "F9": f9_kill_distance,
    "T1": t1_machine_config,
    "A1": a1_path_length,
    "A2": a2_confidence,
    "A3": a3_recovery,
    "A4": a4_scheduling,
    "A5": a5_static_dce,
    "A6": a6_warmup,
    "E1": e1_energy,
    "E2": e2_register_scaling,
}

#: every experiment defined as a declarative run table, by id (the
#: ``repro table`` CLI namespace; G1 is table-only — a generated-corpus
#: grid with no fixed canonical output)
RUN_TABLES: Dict[str, RunTable] = {
    table.id: table
    for table in (F5_TABLE, F6_TABLE, F7_TABLE, F8_TABLE, T1_TABLE,
                  A1_TABLE, A2_TABLE, A3_TABLE, A4_TABLE, A6_TABLE,
                  E1_TABLE, E2_TABLE, G1_TABLE)
}

#: one-line descriptions for ``repro experiments list``
EXPERIMENT_DESCRIPTIONS: Dict[str, str] = {
    experiment_id: (function.__doc__ or "").strip().splitlines()[0]
    for experiment_id, function in ALL_EXPERIMENTS.items()
}


def run_experiment(experiment_id: str,
                   scale: float = 1.0) -> ExperimentResult:
    """Run one experiment by id (F1..F9, T1, A1..A6, E1, E2)."""
    experiment_id = experiment_id.upper()
    if experiment_id not in ALL_EXPERIMENTS:
        message = "unknown experiment %r (have: %s)" % (
            experiment_id, ", ".join(ALL_EXPERIMENTS))
        close = difflib.get_close_matches(experiment_id,
                                          list(ALL_EXPERIMENTS), n=1)
        if close:
            message += "; did you mean %r?" % close[0]
        raise KeyError(message)
    return ALL_EXPERIMENTS[experiment_id](scale)
