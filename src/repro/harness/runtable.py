"""Declarative run tables: factor grids with repetitions and stats.

The experiment functions in :mod:`repro.harness.experiments` used to
each hand-roll their own sweep loop: pick some axis values, loop, fill
a table.  A :class:`RunTable` makes that structure *data*: it declares
the factors (workload, predictor geometry, machine variant, compiler
aggressiveness, ...), the metrics each cell produces, how to measure
one cell, and how to fold the measured grid back into the experiment's
canonical tables.  A :class:`RunTableExecutor` expands the factor
cross product into cells, runs each cell's ``measure`` hook through a
:class:`RunTableContext`, which calls the context's engine directly
(stage cache, artifact plane, ``--jobs`` prefetch pool, fault
supervision, and obs deltas all apply unchanged), and collects a
:class:`RunTableResult`.

With ``repetitions == 1`` the result feeds only the table's own
``summarize`` hook, which is required to rebuild the experiment's
canonical output **byte-identically** to the pre-run-table code: cells
store the same ints and floats the old loops computed, and summarize
folds them in the same iteration order with the same arithmetic.  With
``repetitions > 1`` each repetition re-measures the grid under a
shifted seed — generated ``gen:...`` corpus workloads
(:mod:`repro.workloads.generate`) get genuinely different programs per
repetition, curated suite workloads are deterministic and repeat
exactly — and the statistics layer (:mod:`repro.harness.stats`)
produces mean/CI summaries, per-factor main effects, and pairwise
effect sizes appended as extra tables.

Telemetry: every executed table emits a ``runtable:<id>`` span per
repetition (its cell count in the attributes), surfaced by ``obs
report``.
"""

from __future__ import annotations

import csv
import io
import itertools
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import kernels, obs
from repro.harness import stats as statistics
from repro.harness import sweep
from repro.harness.engine import CellArtifact, Engine, get_engine
from repro.harness.tables import Table
from repro.lang import CompilerOptions
from repro.pipeline import MachineConfig
from repro.workloads import generate

__all__ = [
    "CellResult",
    "Factor",
    "Level",
    "RunTable",
    "RunTableContext",
    "RunTableExecutor",
    "RunTableResult",
    "run_table_experiment",
    "stats_dict",
    "stats_tables",
]


@dataclass(frozen=True)
class Level:
    """One value of a factor: a display label plus an opaque payload
    (a workload name, a machine config, a predictor factory, ...)."""

    label: str
    value: object = None

    @property
    def payload(self) -> object:
        """The level's working value (the label itself when no separate
        payload was declared)."""
        return self.label if self.value is None else self.value


def _coerce_level(spec: object) -> Level:
    if isinstance(spec, Level):
        return spec
    if isinstance(spec, tuple) and len(spec) == 2 \
            and isinstance(spec[0], str):
        return Level(label=spec[0], value=spec[1])
    return Level(label=str(spec), value=spec)


class Factor:
    """One axis of the grid: a named, ordered set of levels.

    Levels may be given as :class:`Level` objects, ``(label, value)``
    pairs, or bare values (the label is then ``str(value)``).  Level
    labels must be unique within the factor — a duplicate label would
    make two grid columns indistinguishable in exports and stats.
    """

    def __init__(self, name: str, levels: Sequence[object]):
        if not name or not isinstance(name, str):
            raise ValueError(
                "factor name must be a non-empty string, got %r" % (name,))
        coerced = [_coerce_level(level) for level in levels]
        if not coerced:
            raise ValueError("factor %r must declare at least one level"
                             % name)
        seen = set()
        for level in coerced:
            if level.label in seen:
                raise ValueError(
                    "factor %r has duplicate level label %r"
                    % (name, level.label))
            seen.add(level.label)
        self.name = name
        self.levels: Tuple[Level, ...] = tuple(coerced)

    def labels(self) -> List[str]:
        return [level.label for level in self.levels]

    def __repr__(self) -> str:
        return "Factor(%r, %d levels)" % (self.name, len(self.levels))


#: one grid point: factor name -> chosen Level, in factor order
Point = Dict[str, Level]


@dataclass
class RunTable:
    """A declarative experiment: factors × measure × summarize.

    * *factors* — the grid axes, expanded as a cross product in
      declaration order (last factor varies fastest);
    * *metrics* — names of the numeric per-cell outputs the stats
      layer summarizes (``measure`` may return extra non-numeric or
      bookkeeping keys beyond these);
    * *measure(ctx, point)* — produce one cell's metric dict;
    * *summarize(result)* — fold a measured grid back into the
      experiment's canonical :class:`ExperimentResult`-compatible
      output (byte-identical to the pre-run-table rendering for
      single-repetition runs);
    * *prefetch(ctx)* — optional hook warming the engine's timing
      stage for the whole grid in parallel before the serial measure
      loop reads results back.
    """

    id: str
    title: str
    factors: List[Factor]
    metrics: List[str]
    measure: Callable[["RunTableContext", Point], Dict[str, object]]
    summarize: Callable[["RunTableResult"], object]
    prefetch: Optional[Callable[["RunTableContext"], None]] = None
    description: str = ""
    base_seed: int = 1

    def validate(self) -> "RunTable":
        if not self.factors:
            raise ValueError("run table %r declares no factors" % self.id)
        names = [factor.name for factor in self.factors]
        if len(set(names)) != len(names):
            raise ValueError(
                "run table %r has duplicate factor names: %s"
                % (self.id, ", ".join(sorted(names))))
        if not self.metrics:
            raise ValueError("run table %r declares no metrics" % self.id)
        return self

    def points(self) -> List[Point]:
        """The expanded grid, row-major (last factor fastest)."""
        self.validate()
        names = [factor.name for factor in self.factors]
        return [dict(zip(names, combo))
                for combo in itertools.product(
                    *[factor.levels for factor in self.factors])]

    def n_cells(self) -> int:
        count = 1
        for factor in self.factors:
            count *= len(factor.levels)
        return count


@dataclass
class CellResult:
    """One measured grid cell."""

    #: factor name -> level label, in factor order
    labels: Dict[str, str]
    #: repetition index (0-based) and its seed (base_seed + rep)
    rep: int
    seed: int
    #: metric name -> measured value (ints/floats for declared
    #: metrics; extra keys may hold any bookkeeping value)
    metrics: Dict[str, object]
    seconds: float = 0.0

    def __getitem__(self, metric: str) -> object:
        return self.metrics[metric]

    def get(self, metric: str, default: object = None) -> object:
        return self.metrics.get(metric, default)


class RunTableContext:
    """Execution context handed to ``measure``/``prefetch`` hooks.

    Resolves workload factor levels — curated suite names and generated
    ``gen:...`` corpus names alike — to the cells of its engine
    (:meth:`~repro.harness.engine.Engine.suite`, memoized per engine),
    and calls the engine's cached stages for them.  The curated cells
    it serves are the curated levels of its table's ``workload`` factor,
    fetched in one batch (a context built without a table, or for a
    table without that factor, serves the whole suite).  Future paths
    are memoized per (cell, path_bits) for the table's lifetime, so a
    sweep hits the paths stage once per trace, not once per sweep
    point.  Under repetitions, generated workload names are re-seeded
    per repetition (``rep`` is added to the ``gen:`` seed field);
    curated workloads are deterministic and measure identically every
    time.
    """

    def __init__(self, scale: float, engine: Optional[Engine] = None,
                 table: Optional[RunTable] = None):
        self.scale = scale
        self.engine = engine if engine is not None else get_engine()
        self.rep = 0
        #: the curated workloads :meth:`suite` fetches (``None``: all)
        self.names: Optional[Tuple[str, ...]] = None
        for factor in table.factors if table is not None else ():
            if factor.name == "workload":
                self.names = tuple(
                    level.payload for level in factor.levels
                    if not generate.is_generated_name(level.payload))
        #: (trace key or cell identity, path_bits) -> PathInfo; it
        #: lives as long as the table, which bounds cold peak RSS
        self._paths: Dict[Tuple[object, int], object] = {}

    # -- workload resolution ------------------------------------------

    def resolve_name(self, name: str) -> str:
        """The workload name for the current repetition (generated
        corpus names shift seed by ``rep``; suite names pass through)."""
        if self.rep and generate.is_generated_name(name):
            spec = generate.parse_generated_name(name)
            spec = replace(spec, seed=spec.seed + self.rep)
            return generate.generated_name(spec)
        return name

    def suite(self, opt_level: int = 2, max_hoist: int = 4,
              scalar_opt: bool = False) -> List[CellArtifact]:
        """The cells of the curated workloads this context serves."""
        return self.engine.suite(self.scale, CompilerOptions(
            opt_level=opt_level, max_hoist=max_hoist,
            scalar_opt=scalar_opt), names=self.names)

    def run_for(self, name: str, opt_level: int = 2, max_hoist: int = 4,
                scalar_opt: bool = False) -> CellArtifact:
        """The cell for one workload factor level."""
        name = self.resolve_name(name)
        if generate.is_generated_name(name):
            return self.engine.suite(self.scale, CompilerOptions(
                opt_level=opt_level, max_hoist=max_hoist,
                scalar_opt=scalar_opt), names=(name,))[0]
        for run in self.suite(opt_level, max_hoist, scalar_opt):
            if run.spec.workload == name:
                return run
        raise KeyError("workload %r is not in the suite this context "
                       "serves" % name)

    # -- per-trace derivations and cached stages ----------------------

    def paths_for(self, run: CellArtifact, path_bits: int):
        key = (run.trace_key or id(run), path_bits)
        paths = self._paths.get(key)
        if paths is None:
            paths = self.engine.paths_for(run, path_bits)
            self._paths[key] = paths
        return paths

    def stream_for(self, run: CellArtifact):
        """The cell's per-PC prediction event stream (kernel-extracted,
        memoized on the analysis object)."""
        return kernels.prediction_stream_for(run.analysis)

    def predict(self, run: CellArtifact, predictor, path_bits: int):
        return sweep.predict(self.engine, run, predictor, path_bits,
                             self.paths_for)

    def simulate(self, run: CellArtifact, config: MachineConfig):
        return self.engine.simulate(run.trace, config, run.analysis,
                                    trace_key=run.trace_key)

    def pair(self, run: CellArtifact, config: MachineConfig,
             elim_overrides: Dict[str, object] = None):
        """(baseline, elimination) timing results for one cell."""
        return (self.simulate(run, config),
                self.simulate(run, sweep.elim_variant(config,
                                                      elim_overrides)))

    # -- parallel warm-up ---------------------------------------------

    def prefetch(self, runs: Sequence[CellArtifact],
                 *configs: MachineConfig) -> None:
        """Warm the engine's timing stage for every (cell, config) pair
        in parallel; purely an accelerator."""
        self.engine.prefetch_simulations(
            [(run, config) for run in runs for config in configs])

    def prefetch_pairs(self, runs: Sequence[CellArtifact],
                       *configs: MachineConfig,
                       elim_overrides: Dict[str, object] = None) -> None:
        expanded: List[MachineConfig] = []
        for config in configs:
            expanded.append(config)
            expanded.append(sweep.elim_variant(config, elim_overrides))
        self.prefetch(runs, *expanded)


@dataclass
class RunTableResult:
    """The measured grid: every cell of every repetition."""

    table: RunTable
    scale: float
    repetitions: int
    cells: List[CellResult] = field(default_factory=list)
    seconds: float = 0.0

    # -- cell access (summarize hooks) --------------------------------

    def cells_at(self, rep: Optional[int] = 0,
                 **labels: str) -> List[CellResult]:
        """Cells matching the given factor labels (``rep=None`` spans
        all repetitions; the default selects the canonical first
        repetition)."""
        out = []
        for cell in self.cells:
            if rep is not None and cell.rep != rep:
                continue
            if all(cell.labels.get(name) == label
                   for name, label in labels.items()):
                out.append(cell)
        return out

    def cell(self, rep: int = 0, **labels: str) -> CellResult:
        """Exactly one cell; raises if the labels are ambiguous."""
        matches = self.cells_at(rep=rep, **labels)
        if len(matches) != 1:
            raise KeyError(
                "expected exactly one cell for rep=%r %r, found %d"
                % (rep, labels, len(matches)))
        return matches[0]

    # -- stats groupings ----------------------------------------------

    def samples(self, metric: str) -> List[float]:
        """Every numeric sample of *metric* across all repetitions."""
        return [cell.metrics[metric] for cell in self.cells
                if isinstance(cell.metrics.get(metric), numbers.Real)]

    def groups(self, factor_name: str,
               metric: str) -> "Dict[str, List[float]]":
        """Label -> samples of *metric*, in factor level order."""
        factor = next((f for f in self.table.factors
                       if f.name == factor_name), None)
        if factor is None:
            raise KeyError("run table %r has no factor %r"
                           % (self.table.id, factor_name))
        grouped: Dict[str, List[float]] = {
            label: [] for label in factor.labels()}
        for cell in self.cells:
            value = cell.metrics.get(metric)
            if isinstance(value, numbers.Real):
                grouped[cell.labels[factor.name]].append(value)
        return grouped

    # -- export -------------------------------------------------------

    def to_dict(self, confidence: float = 0.95) -> Dict[str, object]:
        document: Dict[str, object] = {
            "id": self.table.id,
            "title": self.table.title,
            "scale": self.scale,
            "repetitions": self.repetitions,
            "seconds": self.seconds,
            "factors": [{"name": factor.name,
                         "levels": factor.labels()}
                        for factor in self.table.factors],
            "metrics": list(self.table.metrics),
            "cells": [{"labels": dict(cell.labels),
                       "rep": cell.rep,
                       "seed": cell.seed,
                       "metrics": {name: value
                                   for name, value in
                                   cell.metrics.items()
                                   if _jsonable(value)},
                       "seconds": cell.seconds}
                      for cell in self.cells],
        }
        document["stats"] = stats_dict(self, confidence)
        return document

    def to_csv(self) -> str:
        """One row per cell: factor labels, rep, seed, then metrics."""
        factor_names = [factor.name for factor in self.table.factors]
        header = factor_names + ["rep", "seed"] + list(self.table.metrics)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for cell in self.cells:
            row = [cell.labels[name] for name in factor_names]
            row += [cell.rep, cell.seed]
            row += [cell.metrics.get(metric, "")
                    for metric in self.table.metrics]
            writer.writerow(row)
        return buffer.getvalue()


def _jsonable(value: object) -> bool:
    return isinstance(value, (int, float, str, bool, type(None)))


class RunTableExecutor:
    """Expand a :class:`RunTable` and measure every cell.

    Cells are measured in deterministic grid order (repetition-major,
    then row-major over the factor cross product); all parallelism
    lives below, in the engine's prefetch pool, so results never
    depend on worker scheduling.
    """

    def __init__(self, table: RunTable, scale: float = 1.0,
                 repetitions: int = 1,
                 engine: Optional[Engine] = None):
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1, got %d"
                             % repetitions)
        self.table = table.validate()
        self.scale = scale
        self.repetitions = repetitions
        self.context = RunTableContext(scale, engine=engine,
                                       table=self.table)

    def run(self) -> RunTableResult:
        table = self.table
        result = RunTableResult(table=table, scale=self.scale,
                                repetitions=self.repetitions)
        points = table.points()
        started = time.perf_counter()
        for rep in range(self.repetitions):
            self.context.rep = rep
            rep_started = time.perf_counter()
            if table.prefetch is not None:
                table.prefetch(self.context)
            for point in points:
                cell_started = time.perf_counter()
                metrics = table.measure(self.context, point)
                cell_seconds = time.perf_counter() - cell_started
                result.cells.append(CellResult(
                    labels={name: level.label
                            for name, level in point.items()},
                    rep=rep,
                    seed=table.base_seed + rep,
                    metrics=metrics,
                    seconds=cell_seconds))
            self._note_rep(rep, len(points),
                           time.perf_counter() - rep_started)
        result.seconds = time.perf_counter() - started
        return result

    # -- telemetry ----------------------------------------------------

    def _note_rep(self, rep: int, cells: int, seconds: float) -> None:
        collector = obs.get_collector()
        if collector is None:
            return
        collector.tracer.add("runtable:%s" % self.table.id, seconds,
                             kind="runtable", rep=rep, cells=cells)


# ---------------------------------------------------------------------
# Statistics rendering
# ---------------------------------------------------------------------


def stats_dict(result: RunTableResult,
               confidence: float = 0.95) -> Dict[str, object]:
    """The full stats block as plain data (JSON export)."""
    summaries: Dict[str, object] = {}
    for metric in result.table.metrics:
        samples = result.samples(metric)
        if samples:
            summaries[metric] = statistics.summarize(
                samples, confidence).to_dict()
    factors: Dict[str, object] = {}
    for factor in result.table.factors:
        if len(factor.levels) < 2:
            continue
        per_metric: Dict[str, object] = {}
        for metric in result.table.metrics:
            groups = {label: values for label, values in
                      result.groups(factor.name, metric).items()
                      if values}
            if not groups:
                continue
            per_metric[metric] = {
                "effects": [{"level": effect.level, "n": effect.n,
                             "mean": effect.mean,
                             "effect": effect.effect}
                            for effect in statistics.effects(groups)],
                "pairwise": [{"a": pair.level_a, "b": pair.level_b,
                              "difference": pair.difference,
                              "cohens_d": pair.d}
                             for pair in statistics.pairwise(groups)],
            }
        if per_metric:
            factors[factor.name] = per_metric
    return {"confidence": confidence, "summaries": summaries,
            "factors": factors}


def stats_tables(result: RunTableResult,
                 confidence: float = 0.95) -> List[Table]:
    """The stats block as rendered tables (appended to experiment
    output for repetitions > 1 runs)."""
    tables: List[Table] = []
    pct = "%d%%" % round(confidence * 100)

    summary_table = Table(
        "Metric statistics (%d cells x %d repetitions, %s CI)"
        % (result.table.n_cells(), result.repetitions, pct),
        ["metric", "n", "mean", "stdev", "CI low", "CI high"])
    for metric in result.table.metrics:
        samples = result.samples(metric)
        if not samples:
            continue
        summary = statistics.summarize(samples, confidence)
        summary_table.add_row(metric, summary.n,
                              _sig(summary.mean), _sig(summary.stdev),
                              _sig(summary.ci_low),
                              _sig(summary.ci_high))
    tables.append(summary_table)

    for factor in result.table.factors:
        if len(factor.levels) < 2:
            continue
        effect_table = Table(
            "Main effects: %s (level mean vs grand mean)" % factor.name,
            ["metric", "level", "n", "mean", "effect"])
        pair_table = Table(
            "Pairwise effects: %s (Cohen's d)" % factor.name,
            ["metric", "level a", "level b", "delta mean", "d"])
        populated = False
        for metric in result.table.metrics:
            groups = {label: values for label, values in
                      result.groups(factor.name, metric).items()
                      if values}
            if not groups:
                continue
            populated = True
            for effect in statistics.effects(groups):
                effect_table.add_row(metric, effect.level, effect.n,
                                     _sig(effect.mean),
                                     _sig(effect.effect))
            for pair in statistics.pairwise(groups):
                pair_table.add_row(
                    metric, pair.level_a, pair.level_b,
                    _sig(pair.difference),
                    "--" if pair.d is None else _sig(pair.d))
        if populated:
            tables.append(effect_table)
            tables.append(pair_table)
    return tables


def _sig(value: float) -> str:
    """Compact numeric formatting for stats cells (enough significant
    digits to compare intervals, no float noise)."""
    return "%.6g" % value


def run_table_experiment(table: RunTable, scale: float = 1.0,
                         repetitions: int = 1,
                         confidence: float = 0.95,
                         engine: Optional[Engine] = None):
    """Execute *table* and fold it into its canonical experiment
    output; repetitions > 1 appends the statistics tables."""
    result = RunTableExecutor(table, scale=scale,
                              repetitions=repetitions,
                              engine=engine).run()
    experiment = table.summarize(result)
    if repetitions > 1:
        # Only multi-repetition runs grow extra keys/tables: the
        # canonical single-seed output (tables AND data) must stay
        # exactly what the pre-run-table experiment produced.
        experiment.tables.extend(stats_tables(result, confidence))
        experiment.data["stats"] = stats_dict(result, confidence)
        experiment.data["runtable"] = {
            "id": table.id, "cells": table.n_cells(),
            "repetitions": repetitions}
    return experiment
