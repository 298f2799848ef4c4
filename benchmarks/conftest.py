"""Shared infrastructure for the substrate and ablation benchmarks.

Tests ``record()`` rows under a report name and ``note()`` free-text
lines under it; at session teardown each report is printed and written
to ``benchmarks/results/<name>.{txt,md,csv}``.  The paper's tables are
regenerated by ``nova table N``, not here.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import pytest

from repro import perf
from repro.eval.tables import format_table

RESULTS_DIR = Path(__file__).parent / "results"

_tables: Dict[str, List[dict]] = defaultdict(list)
_notes: Dict[str, List[str]] = defaultdict(list)


def record(table: str, row: dict) -> None:
    _tables[table].append(row)


def note(table: str, text: str) -> None:
    _notes[table].append(text)


@pytest.fixture(autouse=True)
def _perf_counters(request):
    """Collect substrate counters per benchmark test.

    At teardown the full counter set lands in ``benchmark.extra_info``
    so the pytest-benchmark JSON carries it.
    """
    bench = request.getfixturevalue("benchmark") \
        if "benchmark" in request.fixturenames else None
    with perf.collect() as stats:
        yield stats
    if bench is not None:
        for key, value in stats.as_dict().items():
            if value:
                bench.extra_info[key] = value


@pytest.fixture(scope="session", autouse=True)
def _write_reports():
    yield
    from repro.eval.report import to_csv, to_markdown

    RESULTS_DIR.mkdir(exist_ok=True)
    for table, rows in sorted(_tables.items()):
        text = format_table(rows, title=table)
        for extra in _notes.get(table, []):
            text += "\n" + extra
        path = RESULTS_DIR / f"{table}.txt"
        path.write_text(text + "\n")
        md = to_markdown(rows, title=table)
        for extra in _notes.get(table, []):
            md += f"\n> {extra}\n"
        (RESULTS_DIR / f"{table}.md").write_text(md)
        (RESULTS_DIR / f"{table}.csv").write_text(to_csv(rows))
        print(f"\n{text}\n[written to {path} (+ .md/.csv)]")
