"""Tests for the markdown/CSV report writers."""

from repro.eval.report import to_csv, to_markdown


ROWS = [
    {"example": "lion", "nova": 77, "kiss": 88, "note": None},
    {"example": "bbtas", "nova": 195, "kiss": 456, "note": 1.2345},
]


class TestMarkdown:
    def test_table_structure(self):
        md = to_markdown(ROWS, title="Table III")
        lines = md.splitlines()
        assert lines[0] == "**Table III**"
        assert lines[2].startswith("| example |")
        assert "|---|" in lines[3]
        assert md.count("|") >= 4 * 5

    def test_none_rendered_as_dash(self):
        md = to_markdown(ROWS)
        assert "| - |" in md.replace("  ", " ")

    def test_float_formatting(self):
        md = to_markdown(ROWS, float_digits=1)
        assert "1.2" in md and "1.2345" not in md

    def test_empty(self):
        assert "(no rows)" in to_markdown([], title="T")


class TestCsv:
    def test_roundtrip(self):
        import csv
        import io

        text = to_csv(ROWS)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["example"] == "lion"
        assert rows[0]["nova"] == "77"
        assert rows[0]["note"] == ""

    def test_empty(self):
        assert to_csv([]) == ""

