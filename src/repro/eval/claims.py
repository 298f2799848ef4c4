"""The paper's headline claims, computed from the committed tables.

``nova table N --subset all`` writes
``benchmarks/results/paper30/tableN.txt``; the ablation benchmark writes
``benchmarks/results/ablation_iovariant.csv``.  :func:`headline` reads
those files back and derives every row of the "Headline claims" table
of EXPERIMENTS.md, so a change that moves a result moves a claim, and
``tests/test_claims.py`` fails until EXPERIMENTS.md says so.

Status rule.  A comparison claim is a ratio *m* in the paper's own
orientation: below 1 when the paper's NOVA side wins a ``NOVA / other``
ratio, above 1 when it wins an ``other / NOVA`` ratio.  With the
paper's figure *p*:

* ``reproduced`` — *m* is on the paper's side of 1 and keeps at least
  half of the paper's margin, ``|m - 1| >= |p - 1| / 2``;
* ``direction only`` — *m* is on the paper's side of 1 with less than
  half of the margin;
* ``not reproduced`` — *m* is 1 or on the other side.

Where the paper gives a direction but no figure (Table II, §6.2.2 and
the plots of Tables VIII-X) the side of 1 alone decides.  Table VI's
claim holds when every machine ends fully satisfied.

Run ``python -m repro.eval.claims [RESULTS_DIR]`` to print the
Headline table and the Table VIII-X series.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.eval.tables import format_table, parse_table, ratio_series, totals

__all__ = ["Claim", "figure_series", "headline", "load_results",
           "read_table", "render"]

REPRODUCED = "reproduced"
DIRECTION = "direction only"
NOT_REPRODUCED = "not reproduced"


@dataclass(frozen=True)
class Claim:
    """One row of the Headline table."""

    claim: str
    paper: str
    measured: str
    status: str


def read_table(path: Union[str, Path]) -> List[Dict]:
    """Rows of a committed ``nova table`` output (title line first)."""
    _title, body = Path(path).read_text().split("\n", 1)
    return parse_table(body)


def _read_areas(path: Path) -> List[Dict]:
    """Rows of an ablation CSV: the machine name and integer areas."""
    with open(path, newline="") as fh:
        return [{k: v if k == "example" else int(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def load_results(results: Union[str, Path]) -> Dict[str, List[Dict]]:
    """Tables II-VII and the iovariant ablation under *results*."""
    root = Path(results)
    data = {f"table{n}": read_table(root / "paper30" / f"table{n}.txt")
            for n in range(2, 8)}
    data["iovariant"] = _read_areas(root / "ablation_iovariant.csv")
    return data


def _status(m: float, paper: str) -> str:
    """The status of ratio *m* against the paper's figure (``"0.77"``,
    ``"~0.80"``) or, where it gives none, its side (``"< 1"``)."""
    p: Optional[float] = None
    if paper[0] in "<>":
        above = paper[0] == ">"
    else:
        p = float(paper.lstrip("~"))
        above = p > 1
    if (m <= 1) if above else (m >= 1):
        return NOT_REPRODUCED
    if p is not None and abs(m - 1) < abs(p - 1) / 2:
        return DIRECTION
    return REPRODUCED


def _total_claim(claim: str, paper: str, rows: Sequence[Dict], num: str,
                 den: str, extra: str = "") -> Claim:
    t = totals(rows, [num, den])
    m = t[num] / t[den]
    measured = f"{t[num]:,} / {t[den]:,} = **{m:.3f}**{extra}"
    return Claim(claim, paper, measured, _status(m, paper))


def figure_series(data: Dict[str, List[Dict]]) -> Dict[str, List[Dict]]:
    """The y-series of the paper's ratio plots, one row per machine in
    the tables' row order."""
    out: Dict[str, List[Dict]] = {}
    for fig, table, pairs in (
            ("table8", "table3", (("kiss/nova", "kiss_area", "nova_area"),
                                  ("random-best/nova", "random_best",
                                   "nova_area"))),
            ("table9", "table4", (("ihybrid/nova", "ih_area", "nova_area"),
                                  ("iohybrid/nova", "iohybrid_area",
                                   "nova_area"))),
            ("table10", "table7", (("mustang/nova_cubes", "mustang_cubes",
                                    "nova_cubes"),
                                   ("mustang/nova_lits", "mustang_lits",
                                    "nova_lits")))):
        rows = data[table]
        rows_out = [{"example": r["example"]} for r in rows]
        for label, num, den in pairs:
            for row, y in zip(rows_out, ratio_series(rows, num, den)):
                row[label] = y
        out[fig] = rows_out
    return out


def _series_claim(claim: str, series: Sequence[Dict], label: str) -> Claim:
    ys = [r[label] for r in series if r[label] is not None]
    mean = sum(ys) / len(ys)
    above = sum(1 for y in ys if y > 1)
    measured = f"mean **{mean:.3f}**, above 1 on {above}/{len(ys)}"
    return Claim(claim, "> 1", measured, _status(mean, "> 1"))


def headline(results: Union[str, Path]) -> List[Claim]:
    """Every Headline claim, computed from the files under *results*."""
    data = load_results(results)
    t2, t3, t4 = data["table2"], data["table3"], data["table4"]
    t5, t6, t7 = data["table5"], data["table6"], data["table7"]

    done = [r for r in t2 if r["iexact_area"] is not None]
    larger = sum(1 for r in done if r["iexact_area"] > r["ihybrid_area"])
    full = sum(1 for r in t6 if r["wunsat"] == 0)
    series = figure_series(data)
    return [
        _total_claim("NOVA vs KISS area (Table III)", "~0.80", t3,
                     "nova_area", "kiss_area"),
        _total_claim("NOVA vs best random area (Table III)", "~0.70", t3,
                     "nova_area", "random_best"),
        _total_claim("best of NOVA vs best random area (Table IV)", "0.77",
                     t4, "nova_area", "random_best"),
        _total_claim("iohybrid vs Cappuccino/Cream area (Table V)", "0.71",
                     t5, "iohybrid_area", "cappuccino_area"),
        _total_claim("ihybrid vs iexact area where iexact completes "
                     "(Table II)", "< 1", t2, "ihybrid_area", "iexact_area",
                     f"; iexact completes on {len(done)}/{len(t2)}, "
                     f"larger on {larger}"),
        Claim("ihybrid satisfies every constraint given enough bits "
              "(Table VI)", "all machines", f"**{full}/{len(t6)}**",
              REPRODUCED if full == len(t6) else NOT_REPRODUCED),
        _total_claim("MUSTANG vs NOVA cubes (Table VII)", "1.24", t7,
                     "mustang_cubes", "nova_cubes"),
        _total_claim("MUSTANG vs NOVA literals (Table VII)", "1.08", t7,
                     "mustang_lits", "nova_lits"),
        _total_claim("best random vs NOVA literals (Table VII)", "1.30",
                     t7, "random_lits", "nova_lits"),
        _total_claim("iohybrid vs iovariant area (§6.2.2)", "< 1",
                     data["iovariant"], "iohybrid_area", "iovariant_area"),
        _series_claim("KISS / NOVA per machine (Table VIII)",
                      series["table8"], "kiss/nova"),
        _series_claim("best random / NOVA per machine (Table VIII)",
                      series["table8"], "random-best/nova"),
        _series_claim("ihybrid / NOVA per machine (Table IX)",
                      series["table9"], "ihybrid/nova"),
        _series_claim("iohybrid / NOVA per machine (Table IX)",
                      series["table9"], "iohybrid/nova"),
        _series_claim("MUSTANG / NOVA cubes per machine (Table X)",
                      series["table10"], "mustang/nova_cubes"),
        _series_claim("MUSTANG / NOVA literals per machine (Table X)",
                      series["table10"], "mustang/nova_lits"),
    ]


def render(claims: Sequence[Claim]) -> str:
    """The Headline table as EXPERIMENTS.md carries it."""
    lines = ["| Claim (paper) | Paper | Measured | Status |",
             "|---|---|---|---|"]
    lines += [f"| {c.claim} | {c.paper} | {c.measured} | {c.status} |"
              for c in claims]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    results = Path(args[0] if args else "benchmarks/results")
    print(render(headline(results)))
    for fig, rows in figure_series(load_results(results)).items():
        print()
        print(format_table(rows, title=f"{fig} series"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
