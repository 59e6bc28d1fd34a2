"""Declarative run tables, the stats layer, and the generated corpus.

The engine-facing integration of the rewired experiments (F5..E2) is
covered by ``test_harness.py``; this file exercises the run-table
machinery itself on engine-free tables — spec validation, grid
expansion, repetition seeding, statistics — plus the promoted
workload generator and the new CLI surface.
"""

import dataclasses
import json
import math

import pytest

from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    EXPERIMENT_DESCRIPTIONS,
    RUN_TABLES,
    ExperimentResult,
)
from repro.harness.runtable import (
    Factor,
    Level,
    RunTable,
    RunTableExecutor,
    run_table_experiment,
    stats_dict,
    stats_tables,
)
from repro.harness import stats
from repro.harness.tables import Table
from repro.workloads import generate
from repro.workloads.suite import get_workload


# ---------------------------------------------------------------------
# An engine-free table: measurement is pure arithmetic over the point
# ---------------------------------------------------------------------

def _toy_table(metrics=("value",), factors=None, base_seed=1):
    def measure(ctx, point):
        x = point["x"].payload
        y = point["y"].payload if "y" in point else 0
        return {"value": x * 10 + y + ctx.rep, "note": "n/a"}

    def summarize(result):
        table = Table("toy", ["x", "value"])
        for cell in result.cells_at():
            table.add_row(cell.labels["x"], cell["value"])
        return ExperimentResult(id="TOY", title="toy",
                                tables=[table], data={})

    return RunTable(
        id="TOY", title="toy",
        factors=factors if factors is not None else [
            Factor("x", (1, 2, 3)), Factor("y", (4, 5))],
        metrics=list(metrics),
        measure=measure, summarize=summarize, base_seed=base_seed)


class TestSpecValidation:
    def test_factor_requires_levels(self):
        with pytest.raises(ValueError, match="at least one level"):
            Factor("empty", ())

    def test_factor_requires_name(self):
        with pytest.raises(ValueError, match="non-empty string"):
            Factor("", (1,))

    def test_factor_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate level label"):
            Factor("x", (("a", 1), ("a", 2)))

    def test_level_coercion(self):
        factor = Factor("x", (1, ("two", 2), Level("three", 3)))
        assert factor.labels() == ["1", "two", "three"]
        assert [level.payload for level in factor.levels] == [1, 2, 3]

    def test_level_without_value_pays_its_label(self):
        assert Level("sort").payload == "sort"

    def test_table_requires_factors(self):
        table = _toy_table(factors=[])
        with pytest.raises(ValueError, match="no factors"):
            table.validate()

    def test_table_rejects_duplicate_factor_names(self):
        table = _toy_table(factors=[Factor("x", (1,)),
                                    Factor("x", (2,))])
        with pytest.raises(ValueError, match="duplicate factor names"):
            table.validate()

    def test_table_requires_metrics(self):
        table = _toy_table(metrics=())
        with pytest.raises(ValueError, match="no metrics"):
            table.validate()

    def test_points_last_factor_fastest(self):
        points = _toy_table().points()
        assert len(points) == 6
        assert [(p["x"].label, p["y"].label) for p in points[:3]] == \
            [("1", "4"), ("1", "5"), ("2", "4")]

    def test_single_cell_table(self):
        table = _toy_table(factors=[Factor("x", (7,))])
        assert table.n_cells() == 1
        result = RunTableExecutor(table).run()
        assert len(result.cells) == 1
        assert result.cells[0]["value"] == 70


class TestExecutor:
    def test_rejects_nonpositive_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            RunTableExecutor(_toy_table(), repetitions=0)

    def test_grid_and_seeds(self):
        result = RunTableExecutor(_toy_table(base_seed=5),
                                  repetitions=3).run()
        assert len(result.cells) == 18
        assert sorted({cell.rep for cell in result.cells}) == [0, 1, 2]
        assert sorted({cell.seed for cell in result.cells}) == [5, 6, 7]
        # deterministic: same spec, same cells
        again = RunTableExecutor(_toy_table(base_seed=5),
                                 repetitions=3).run()
        assert [cell.metrics for cell in again.cells] == \
            [cell.metrics for cell in result.cells]

    def test_cell_selection(self):
        result = RunTableExecutor(_toy_table(), repetitions=2).run()
        assert result.cell(x="2", y="5")["value"] == 25
        assert len(result.cells_at(rep=None, x="2", y="5")) == 2
        with pytest.raises(KeyError):
            result.cell(x="2")  # ambiguous: two y levels

    def test_lookups_on_a_grid_with_repetitions(self):
        result = RunTableExecutor(_toy_table(), repetitions=3).run()
        assert result.cell(rep=2, x="3", y="4")["value"] == 36
        assert [cell["value"] for cell in result.cells_at(
            rep=None, x="2", y="5")] == [25, 26, 27]
        # rep=None spans every repetition, in grid order.
        assert [(cell.rep, cell.labels["y"]) for cell in result.cells_at(
            rep=None, x="1")] == [(0, "4"), (0, "5"), (1, "4"), (1, "5"),
                                  (2, "4"), (2, "5")]
        assert [cell.labels for cell in result.cells_at(rep=1)] == \
            [cell.labels for cell in result.cells if cell.rep == 1]
        assert result.cells_at(rep=3, x="1") == []
        with pytest.raises(KeyError, match="found 2"):
            result.cell(rep=1, x="2")  # two y levels
        with pytest.raises(KeyError, match="found 0"):
            result.cell(x="9", y="4")
        with pytest.raises(KeyError, match="found 3"):
            result.cell(rep=None, x="2", y="5")
        # A cell added after a lookup is found by the next one.
        result.cells.append(dataclasses.replace(result.cells[0], rep=3))
        assert result.cell(rep=3, x="1", y="4")["value"] == 14

    def test_groups_and_samples(self):
        result = RunTableExecutor(_toy_table()).run()
        assert len(result.samples("value")) == 6
        groups = result.groups("x", "value")
        assert list(groups) == ["1", "2", "3"]
        assert groups["3"] == [34, 35]
        with pytest.raises(KeyError):
            result.groups("z", "value")

    def test_csv_round_trip(self):
        text = RunTableExecutor(_toy_table()).run().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "x,y,rep,seed,value"
        assert lines[1] == "1,4,0,1,14"
        assert len(lines) == 7

    def test_dict_export_filters_unjsonable(self):
        document = RunTableExecutor(_toy_table()).run().to_dict()
        json.dumps(document)  # must be serializable as-is
        assert document["id"] == "TOY"
        assert [f["name"] for f in document["factors"]] == ["x", "y"]
        assert document["cells"][0]["metrics"]["note"] == "n/a"
        assert "stats" in document


class TestStatsLayer:
    def test_summarize_n1_no_div_by_zero(self):
        summary = stats.summarize([3.5])
        assert summary.n == 1
        assert summary.mean == 3.5
        assert summary.stdev == 0.0
        assert summary.ci_low == summary.ci_high == 3.5

    def test_summarize_zero_variance(self):
        summary = stats.summarize([2.0, 2.0, 2.0])
        assert summary.stdev == 0.0
        assert summary.ci_low == summary.ci_high == 2.0

    def test_summarize_interval(self):
        summary = stats.summarize([1.0, 2.0, 3.0], confidence=0.95)
        assert summary.mean == 2.0
        # t(0.95, df=2) = 4.303, half-width = 4.303 * 1 / sqrt(3)
        half = 4.303 / math.sqrt(3)
        assert summary.ci_low == pytest.approx(2.0 - half, rel=1e-3)
        assert summary.ci_high == pytest.approx(2.0 + half, rel=1e-3)

    def test_t_critical_known_values(self):
        assert stats.t_critical(1) == pytest.approx(12.706)
        assert stats.t_critical(1) > stats.t_critical(10)

    def test_cohens_d_zero_variance_is_none(self):
        assert stats.cohens_d([1.0, 1.0], [1.0, 1.0]) is None

    def test_effects_center_on_grand_mean(self):
        groups = {"a": [1.0, 1.0], "b": [3.0, 3.0]}
        effects = stats.effects(groups)
        assert [e.level for e in effects] == ["a", "b"]
        assert effects[0].effect == pytest.approx(-1.0)
        assert effects[1].effect == pytest.approx(1.0)

    def test_pairwise_counts(self):
        groups = {"a": [1.0], "b": [2.0], "c": [3.0]}
        assert len(stats.pairwise(groups)) == 3

    def test_stats_tables_and_dict(self):
        result = RunTableExecutor(_toy_table(), repetitions=2).run()
        tables = stats_tables(result)
        assert "2 repetitions" in tables[0].title
        titles = [table.title for table in tables]
        assert any("Main effects: x" in title for title in titles)
        assert any("Pairwise effects: y" in title for title in titles)
        document = stats_dict(result)
        assert "value" in document["summaries"]
        assert set(document["factors"]) == {"x", "y"}

    def test_run_table_experiment_gates_stats_on_reps(self):
        single = run_table_experiment(_toy_table())
        assert "stats" not in single.data
        assert len(single.tables) == 1
        multi = run_table_experiment(_toy_table(), repetitions=2)
        assert "stats" in multi.data
        assert multi.data["runtable"]["repetitions"] == 2
        assert len(multi.tables) > 1


class TestPrivateEngine:
    def test_curated_cells_come_from_the_private_engine(self, tmp_path):
        """A table over curated workloads on a private engine
        materializes them there, and only them, and creates no
        process-wide engine."""
        from repro.harness.engine import (
            Engine,
            EngineConfig,
            peek_engine,
            reset_engine,
        )

        def measure(ctx, point):
            run = ctx.run_for(point["workload"].payload)
            return {"dead": run.analysis.n_dead}

        table = RunTable(
            id="CUR", title="curated", factors=[
                Factor("workload", ("sort", "rle"))],
            metrics=["dead"], measure=measure,
            summarize=lambda result: None)
        engine = Engine(EngineConfig(jobs=1,
                                     cache_dir=str(tmp_path / "cache")))
        reset_engine()
        result = RunTableExecutor(table, scale=0.1, engine=engine).run()
        assert peek_engine() is None
        assert engine.stats.misses("trace") == 2
        assert all(cell["dead"] > 0 for cell in result.cells)


class TestRegistry:
    def test_rewired_experiments_are_run_tables(self):
        rewired = {"F5", "F6", "F7", "F8", "T1", "A1", "A2", "A3",
                   "A4", "A6", "E1", "E2"}
        assert rewired <= set(RUN_TABLES)
        assert "G1" in RUN_TABLES
        for table in RUN_TABLES.values():
            table.validate()

    def test_every_experiment_described(self):
        assert set(EXPERIMENT_DESCRIPTIONS) == set(ALL_EXPERIMENTS)
        assert all(EXPERIMENT_DESCRIPTIONS.values())


class TestGenerator:
    def test_name_round_trip(self):
        spec = generate.GeneratedSpec(seed=9, stmts=12, branchiness=70,
                                      deadness=10, bias=50)
        assert generate.parse_generated_name(
            generate.generated_name(spec)) == spec

    def test_short_names_use_defaults(self):
        spec = generate.parse_generated_name("gen:s3")
        assert spec.seed == 3
        assert spec.stmts == generate.GeneratedSpec().stmts

    def test_bad_name_fields_are_named(self):
        with pytest.raises(ValueError, match="seed"):
            generate.parse_generated_name("gen:sfoo")
        with pytest.raises(ValueError):
            generate.parse_generated_name("gen:q1")

    def test_spec_validation_names_the_knob(self):
        with pytest.raises(ValueError, match="seed"):
            generate.GeneratedSpec(seed=-1).validate()
        with pytest.raises(ValueError, match="stmts"):
            generate.GeneratedSpec(stmts=0).validate()
        with pytest.raises(ValueError, match="branchiness"):
            generate.GeneratedSpec(branchiness=101).validate()

    def test_generation_is_deterministic(self):
        spec = generate.GeneratedSpec(seed=4)
        assert generate.generate_ast(spec, 0.5) == \
            generate.generate_ast(spec, 0.5)
        assert generate.generate_ast(spec, 0.5) != \
            generate.generate_ast(generate.GeneratedSpec(seed=5), 0.5)

    def test_generated_workload_compiles_and_matches_reference(self):
        # Workload.run cross-checks compiled output against the
        # interpreter reference and raises on mismatch.
        workload = get_workload("gen:s1:n10")
        machine, trace = workload.run(scale=0.5)
        assert machine.output
        assert len(trace) > 0

    def test_repetition_seeding(self):
        from repro.harness.runtable import RunTableContext

        ctx = RunTableContext(scale=0.5)
        assert ctx.resolve_name("gen:s3:n10") == "gen:s3:n10"
        assert ctx.resolve_name("sort") == "sort"
        ctx.rep = 2
        shifted = generate.parse_generated_name(
            ctx.resolve_name("gen:s3:n10"))
        assert shifted == generate.GeneratedSpec(seed=5, stmts=10)
        assert ctx.resolve_name("sort") == "sort"


class TestCli:
    def test_experiments_list(self, capsys):
        from repro.harness.cli import main

        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "F5" in out and "table" in out
        assert EXPERIMENT_DESCRIPTIONS["F1"] in out

    def test_table_show_needs_no_engine(self, capsys):
        from repro.harness.cli import main

        assert main(["table", "show", "F5"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "accuracy" in out

    def test_table_run_and_export(self, tmp_path, capsys):
        from repro.harness.cli import main

        cache = str(tmp_path / "cache")
        out_json = str(tmp_path / "g1.json")
        out_csv = str(tmp_path / "g1.csv")
        assert main(["table", "run", "G1", "--scale", "0.2",
                     "--reps", "2", "--cache-dir", cache,
                     "--json", out_json, "--csv", out_csv]) == 0
        rendered = capsys.readouterr().out
        assert "Generated-corpus elimination grid" in rendered
        assert "Metric statistics" in rendered
        assert "Main effects: workload" in rendered
        with open(out_json) as stream:
            document = json.load(stream)
        assert document["repetitions"] == 2
        cells = document["tables"]["G1"]["cells"]
        assert len(cells) == 8
        assert "summaries" in document["tables"]["G1"]["stats"]
        with open(out_csv) as stream:
            header = stream.readline().strip()
        assert header == "workload,machine,rep,seed," \
                         "dead_fraction,base_ipc,speedup"

    def test_table_validation_errors(self):
        from repro.harness.cli import main

        for argv in (["table", "run", "G1", "--scale", "0"],
                     ["table", "run", "G1", "--scale", "nan"],
                     ["table", "run", "G1", "--reps", "0"],
                     ["table", "run", "G1", "--reps", "1.5"],
                     ["table", "run", "ZZ"],
                     ["table", "export", "F5", "A1", "--format", "csv"],
                     ["F1", "--scale", "-2"]):
            with pytest.raises(SystemExit):
                main(argv)
