"""Report writers: render experiment rows as markdown or CSV.

The benchmark harness stores rows as plain dicts (see
:mod:`repro.eval.tables`); these helpers turn them into the formats
EXPERIMENTS.md and external tooling consume.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Sequence


def to_markdown(rows: Sequence[Dict], title: str = "",
                float_digits: int = 2) -> str:
    """GitHub-flavoured markdown table of the rows."""
    if not rows:
        return f"**{title}**\n\n(no rows)\n" if title else "(no rows)\n"
    keys = list(rows[0].keys())

    def cell(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    lines = []
    if title:
        lines.append(f"**{title}**")
        lines.append("")
    lines.append("| " + " | ".join(keys) + " |")
    lines.append("|" + "|".join("---" for _ in keys) + "|")
    for row in rows:
        lines.append("| " + " | ".join(cell(row.get(k)) for k in keys) + " |")
    return "\n".join(lines) + "\n"


def to_csv(rows: Sequence[Dict]) -> str:
    """CSV text of the rows (header from the first row's keys)."""
    if not rows:
        return ""
    keys = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row.get(k) is None else row.get(k))
                         for k in keys})
    return buf.getvalue()

