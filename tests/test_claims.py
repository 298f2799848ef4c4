"""The committed paper tables and the Headline claims computed from them.

``benchmarks/results/paper30/tableN.txt`` is the output of
``nova table N --subset all``; EXPERIMENTS.md's Headline table is
:func:`repro.eval.claims.render` of those files.  A change that moves a
result fails here until both are regenerated.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.discover import subset_names
from repro.cli import main as cli_main
from repro.eval import claims
from repro.eval.tables import format_table, parse_table

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"


def headline_rows():
    """EXPERIMENTS.md's Headline table: claim text -> its cells."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Headline claims", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| ") and not line.startswith("| Claim (paper)"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            rows[cells[0]] = cells[1:]
    return rows


class TestHeadline:
    def test_every_row_is_computed_from_the_committed_tables(self):
        computed = claims.headline(RESULTS)
        rows = headline_rows()
        assert set(rows) == {c.claim for c in computed}
        for c in computed:
            assert rows[c.claim] == [c.paper, c.measured, c.status], c.claim

    @pytest.mark.parametrize("m, paper, status", [
        (0.66, "~0.80", "reproduced"),
        (0.90, "~0.80", "reproduced"),          # exactly half the margin
        (0.91, "~0.80", "direction only"),
        (1.00, "~0.80", "not reproduced"),
        (1.13, "1.24", "reproduced"),
        (1.05, "1.24", "direction only"),
        (0.98, "1.24", "not reproduced"),
        (0.98, "< 1", "reproduced"),
        (1.08, "< 1", "not reproduced"),
        (1.01, "> 1", "reproduced"),
        (1.00, "> 1", "not reproduced"),
    ])
    def test_status_rule(self, m, paper, status):
        assert claims._status(m, paper) == status

    def test_figure_series_follow_the_table_rows(self):
        data = claims.load_results(RESULTS)
        series = claims.figure_series(data)
        assert [r["example"] for r in series["table8"]] == \
            [r["example"] for r in data["table3"]]
        # NOVA is the per-machine best of ihybrid/igreedy and iohybrid
        assert all(r["ihybrid/nova"] >= 1 and r["iohybrid/nova"] >= 1
                   for r in series["table9"])


class TestParseTable:
    def test_round_trip(self):
        rows = [
            {"example": "dk15", "alg": "ihybrid", "bits": 5, "area": 153,
             "avg": 230.9, "iexact": None},
            {"example": "s1", "alg": "igreedy", "bits": 12, "area": 0,
             "avg": 145.0, "iexact": 7},
        ]
        assert parse_table(format_table(rows)) == rows

    def test_ragged_row_is_an_error(self):
        with pytest.raises(ValueError, match="cells"):
            parse_table("a  b\n1  2  3")


class TestNovaTable:
    @pytest.mark.parametrize("number", [1, 3])
    def test_small_rows_match_the_committed_paper30_rows(self, number,
                                                          capsys):
        assert cli_main(["table", str(number), "--subset", "small"]) == 0
        title, body = capsys.readouterr().out.split("\n", 1)
        assert title == f"Table {number} (small)"
        rows = parse_table(body)
        assert [r["example"] for r in rows] == \
            subset_names("paper30", "small")
        committed = {r["example"]: r for r in claims.read_table(
            RESULTS / "paper30" / f"table{number}.txt")}
        assert rows == [committed[r["example"]] for r in rows]

    def test_failed_row_exits_nonzero_and_names_it(self, monkeypatch,
                                                   capsys):
        from repro.bench import discover
        monkeypatch.setattr(discover, "subset_names",
                            lambda table, subset: ["no-such-machine"])
        assert cli_main(["table", "3", "--subset", "small"]) == 1
        captured = capsys.readouterr()
        assert "no row for no-such-machine" in captured.err
        assert captured.out == ""

