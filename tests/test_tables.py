"""Tests for the experiment harness (table/figure regeneration)."""

import copy
import json
from pathlib import Path

import pytest

from repro.encoding import nova
from repro.encoding.nova import shared_stages

from repro.eval.tables import (
    CAPPUCCINO,
    _effort,
    format_table,
    random_columns,
    ratio_series,
    run,
    table1_rows,
    table2_row,
    table3_row,
    table4_row,
    table5_row,
    table6_row,
    table7_row,
    totals,
)
from repro.fsm.benchmarks import benchmark, benchmark_names


class TestTable1:
    def test_rows_for_small_subset(self):
        rows = table1_rows("small")
        assert len(rows) == len(benchmark_names("small"))
        for r in rows:
            assert r["states"] >= 2
            assert r["products"] >= r["states"] - 1


class TestTableRows:
    def test_table2_row(self):
        row = table2_row("shiftreg")
        assert row["ihybrid_bits"] == 3
        assert row["onehot_cubes"] > 0
        assert row["ihybrid_area"] > 0
        assert row["igreedy_area"] > 0

    def test_table2_row_without_iexact(self):
        row = table2_row("lion9", include_iexact=False)
        assert "iexact_bits" not in row

    def test_table2_iexact_failure_becomes_none(self):
        # triangle constraints: iexact gives up on its deterministic
        # max_work cap and the fallback chain answers with ihybrid,
        # whose numbers must not be reported as iexact's
        row = table2_row("lion9")
        assert row["iexact_bits"] is None
        assert row["iexact_cubes"] is None
        assert row["iexact_area"] is None
        assert row["ihybrid_area"] > 0

    def test_table2_iexact_completion_reports_its_own_numbers(self):
        row = table2_row("shiftreg")
        r = run("shiftreg", "iexact")
        assert r.algorithm == "iexact"
        assert (row["iexact_bits"], row["iexact_cubes"],
                row["iexact_area"]) == (r.bits, r.cubes, r.area)

    def test_table3_row(self):
        row = table3_row("bbtas", trials=3)
        assert row["nova_alg"] in ("ihybrid", "igreedy")
        assert row["nova_area"] > 0
        assert row["kiss_area"] > 0
        assert row["random_best"] <= row["random_avg"]

    def test_table4_row(self):
        row = table4_row("lion", trials=3)
        assert row["nova_area"] <= row["iohybrid_area"]
        assert row["nova_area"] <= row["ih_area"]

    def test_table5_row(self):
        row = table5_row("lion")
        assert row["cappuccino_area"] == CAPPUCCINO["lion"][2]
        assert row["iohybrid_area"] > 0

    def test_table6_row(self):
        row = table6_row("bbtas")
        assert row["wsat"] >= 0
        assert row["clength"] >= row["min_clength"]
        assert row["time"] >= 0

    def test_table7_row(self):
        row = table7_row("train4", trials=2)
        assert row["mustang_cubes"] > 0
        assert row["nova_cubes"] > 0
        assert row["nova_lits"] >= 0
        assert row["random_lits"] > 0


class TestHelpers:
    def test_random_columns_deterministic(self):
        a = random_columns("lion", trials=4)
        b = random_columns("lion", trials=4)
        assert a == b
        assert a["best"] <= a["avg"]

    def test_ratio_series(self):
        rows = [{"a": 2, "b": 4}, {"a": 1, "b": 3}, {"a": None, "b": 3}]
        assert ratio_series(rows, "b", "a") == [2.0, 3.0, None]

    def test_format_table(self):
        text = format_table([{"x": 1, "y": "ab"}], title="T")
        assert "T" in text and "x" in text and "ab" in text
        assert format_table([], title="E").startswith("E")

    def test_totals_skips_incomplete_rows(self):
        rows = [{"a": 1, "b": 2}, {"a": None, "b": 5}, {"a": 3, "b": 4}]
        assert totals(rows, ["a", "b"]) == {"a": 4, "b": 6}

    def test_cappuccino_covers_table5(self):
        assert set(benchmark_names("table5")) == set(CAPPUCCINO)


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden_tables.json"


class TestRowStageSharing:
    """A row MV-minimizes its machine once and shares the result with
    every encoder of the row, without changing any number."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(nova, name)

        def counting(*args, **kwargs):
            calls.append(args[0].fsm.name)
            return real(*args, **kwargs)

        monkeypatch.setattr(nova, name, counting)
        return calls

    def test_table3_row_extracts_once(self, monkeypatch):
        extractions = self._count(monkeypatch, "extract_input_constraints")
        table3_row("bbtas", trials=3)
        # ihybrid, igreedy, kiss and three random trials: one extraction
        assert extractions == ["bbtas"]

    def test_table4_row_extracts_and_minimizes_once(self, monkeypatch):
        extractions = self._count(monkeypatch, "extract_input_constraints")
        symbolic = self._count(monkeypatch, "symbolic_minimize")
        table4_row("lion", trials=3)
        assert extractions == ["lion"]
        assert symbolic == ["lion"]

    def test_rows_share_nothing_across_calls(self, monkeypatch):
        extractions = self._count(monkeypatch, "extract_input_constraints")
        table3_row("bbtas", trials=1)
        table3_row("bbtas", trials=1)
        assert extractions == ["bbtas", "bbtas"]

    @pytest.mark.parametrize("kind", [
        f"{table}:{name}" for table in (2, 3, 4)
        for name in ("lion", "bbtas", "train4", "dk27")])
    def test_rows_match_golden(self, kind):
        golden = json.loads(GOLDEN.read_text())
        table, name = kind.split(":")
        if table == "2":
            row = table2_row(name, include_iexact=False)
        else:
            row = {"3": table3_row, "4": table4_row}[table](name)
        assert json.loads(json.dumps(row)) == golden[kind]

    def test_row_leaves_shared_stages_unchanged(self):
        name = "dk27"  # symbolic proper input: symbol constraints too
        fsm = benchmark(name)
        report = nova.RunReport(machine=name, requested_algorithm="")
        with shared_stages():
            stages = nova._stages_for(fsm, _effort(name))
            shared = (stages.extraction(report), stages.symbolic(report))

            def snapshot():
                covers = [list(c.cubes) for c in
                          (stages.sc.on, stages.sc.dc, stages.sc.off)]
                return copy.deepcopy((covers, shared))

            before = snapshot()
            table3_row(name, trials=2)
            table4_row(name, trials=2)
            table5_row(name)
            assert nova._stages_for(fsm, _effort(name)) is stages
            assert snapshot() == before
