"""Experiment harness: one row function per table of the paper.

``nova table N`` runs ``tableN_row`` once per machine of
:data:`TABLE_SETS` ``[N]`` and prints the rows with
:func:`format_table`; ``benchmarks/results/paper30/`` holds that output
and :func:`parse_table` reads it back (see :mod:`repro.eval.claims`).
Rows are plain dicts (easy to print and assert on).

Each row function (and :func:`random_columns`) runs inside one
:func:`~repro.encoding.nova.shared_stages` block: the paper derives a
row's constraints from a single MV minimization, so every encoder of
the row — ihybrid, igreedy, KISS, iohybrid, the random trials — works
from the same symbolic cover, constraints and symbolic minimization
instead of recomputing them per call.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.baselines.mustang import MUSTANG_OPTIONS
from repro.encoding.nova import NovaResult, encode_fsm, shared_stages
from repro.eval.multilevel import multilevel_literals
from repro.fsm.benchmarks import benchmark, is_low_effort
from repro.fsm.machine import minimum_code_length

# Table V's comparison column: Cappuccino/Cream is not available, so the
# paper's published numbers are kept as the reference (DESIGN.md §5.3).
# Values are (#bits, #cubes, area); a few area digits are reconstructed
# from the row data where the scan is illegible.
CAPPUCCINO = {
    "bbtas": (4, 11, 198),
    "cse": (8, 49, 2205),
    "lion": (2, 6, 66),
    "lion9": (5, 10, 200),
    "modulo12": (7, 17, 408),
    "planet": (10, 89, 5607),
    "s1": (7, 68, 2924),
    "sand": (9, 107, 6206),
    "shiftreg": (4, 14, 210),
    "styr": (12, 103, 6592),
    "tav": (3, 11, 231),
    "train11": (6, 10, 230),
    "dol": (4, 8, 136),
    "dk14": (5, 23, 598),
    "dk15": (4, 15, 345),
    "dk16": (11, 49, 1963),
    "dk17": (4, 17, 323),
    "dk27": (3, 9, 120),
    "dk512": (7, 22, 573),
}


#: The machine set each table runs over, in the paper's row order.
TABLE_SETS = {1: "paper30", 2: "paper30", 3: "paper30", 4: "paper30",
              5: "table5", 6: "paper30", 7: "table7"}


def _effort(name: str) -> str:
    return "low" if is_low_effort(name) else "full"


def run(name: str, algorithm: str, **kwargs) -> NovaResult:
    """Run one algorithm on one benchmark with the tuned effort level."""
    fsm = benchmark(name)
    return encode_fsm(fsm, algorithm, effort=_effort(name), **kwargs)


def random_trials(name: str, paper_trials: int,
                  trials: Optional[int] = None,
                  seed: int = 1989) -> List[NovaResult]:
    """The random-assignment baseline runs of one table row.

    *paper_trials* is the paper's trial count for the table; machines
    with more than 12 states cap it at 5 unless ``trials`` is passed
    explicitly (the full protocol is slow in pure Python).
    """
    fsm = benchmark(name)
    if trials is None:
        trials = paper_trials if fsm.num_states <= 12 else min(paper_trials, 5)
    # one derived integer seed per trial (not a shared Random instance)
    # so every run is a pure function of its cache fingerprint
    seeds = random.Random(seed).sample(range(1 << 30), trials)
    return [encode_fsm(fsm, "random", effort=_effort(name), seed=s)
            for s in seeds]


@shared_stages()
def random_columns(
    name: str,
    trials: Optional[int] = None,
    seed: int = 1989,
) -> Dict[str, float]:
    """Best and average area over random assignments (Tables III/IV):
    #states + #symbolic-inputs trials in the paper's protocol."""
    fsm = benchmark(name)
    runs = random_trials(
        name, fsm.num_states + len(fsm.symbolic_input_values), trials, seed)
    areas = [r.area for r in runs]
    return {"best": min(areas), "avg": round(sum(areas) / len(areas), 1),
            "trials": len(runs)}


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def table1_row(name: str) -> Dict:
    """Table I: benchmark statistics."""
    row: Dict = {"example": name}
    row.update(benchmark(name).stats())
    return row


@shared_stages()
def table2_row(name: str, include_iexact: bool = True) -> Dict:
    """Table II: iexact vs ihybrid vs igreedy vs 1-hot."""
    row: Dict = {"example": name}
    if include_iexact:
        r = run(name, "iexact")
        if r.algorithm == "iexact":
            row.update(iexact_bits=r.bits, iexact_cubes=r.cubes,
                       iexact_area=r.area)
        else:  # iexact gave up and a fallback answered: not its numbers
            row.update(iexact_bits=None, iexact_cubes=None, iexact_area=None)
    results = {alg: run(name, alg) for alg in ("ihybrid", "igreedy")}
    for alg, r in results.items():
        row[f"{alg}_bits"] = r.bits
        row[f"{alg}_cubes"] = r.cubes
        row[f"{alg}_area"] = r.area
    # a 1-hot code implements the MV-minimized cover cube for cube
    row["onehot_cubes"] = results["ihybrid"].mv_cover_size
    return row


@shared_stages()
def table3_row(name: str, trials: Optional[int] = None) -> Dict:
    """Table III: best of ihybrid/igreedy vs KISS vs random."""
    row: Dict = {"example": name}
    results = {alg: run(name, alg) for alg in ("ihybrid", "igreedy")}
    best = min(results.values(), key=lambda r: r.area)
    row.update(nova_alg=best.algorithm, nova_bits=best.bits,
               nova_cubes=best.cubes, nova_area=best.area)
    kiss = run(name, "kiss")
    row.update(kiss_bits=kiss.bits, kiss_cubes=kiss.cubes,
               kiss_area=kiss.area)
    rnd = random_columns(name, trials=trials)
    row.update(random_best=rnd["best"], random_avg=rnd["avg"])
    return row


@shared_stages()
def table4_row(name: str, trials: Optional[int] = None) -> Dict:
    """Table IV: iohybrid vs ihybrid/igreedy vs best-of-NOVA vs random."""
    row: Dict = {"example": name}
    io = run(name, "iohybrid")
    row.update(iohybrid_bits=io.bits, iohybrid_cubes=io.cubes,
               iohybrid_area=io.area)
    inputs_only = min((run(name, a) for a in ("ihybrid", "igreedy")),
                      key=lambda r: r.area)
    row.update(ih_bits=inputs_only.bits, ih_cubes=inputs_only.cubes,
               ih_area=inputs_only.area)
    best = min((io, inputs_only), key=lambda r: r.area)
    row.update(nova_bits=best.bits, nova_cubes=best.cubes,
               nova_area=best.area)
    rnd = random_columns(name, trials=trials)
    row.update(random_best=rnd["best"], random_avg=rnd["avg"])
    return row


@shared_stages()
def table5_row(name: str) -> Dict:
    """Table V: iohybrid vs the published Cappuccino/Cream numbers."""
    io = run(name, "iohybrid")
    cap = CAPPUCCINO[name]
    return {
        "example": name,
        "iohybrid_bits": io.bits,
        "iohybrid_cubes": io.cubes,
        "iohybrid_area": io.area,
        "cappuccino_bits": cap[0],
        "cappuccino_cubes": cap[1],
        "cappuccino_area": cap[2],
    }


def table6_row(name: str) -> Dict:
    """Table VI: ihybrid statistics (wsat, wunsat, clength, time)."""
    from repro.constraints.input_constraints import extract_input_constraints
    from repro.encoding.ihybrid import HybridStats, ihybrid_code
    from repro.fsm.symbolic_cover import build_symbolic_cover
    import time

    fsm = benchmark(name)
    t0 = time.perf_counter()
    sc = build_symbolic_cover(fsm)
    extraction = extract_input_constraints(sc, effort=_effort(name))
    cs = extraction.state_constraints
    stats = HybridStats()
    # full satisfaction run: how long a code is needed for all constraints
    ihybrid_code(cs, nbits=cs.n, stats=stats)
    seconds = time.perf_counter() - t0
    return {
        "example": name,
        "wsat": stats.satisfied_weight,
        "wunsat": stats.unsatisfied_weight,
        "clength": stats.final_bits,
        "min_clength": minimum_code_length(cs.n),
        "time": round(seconds, 2),
    }


@shared_stages()
def table7_row(name: str, trials: Optional[int] = None) -> Dict:
    """Table VII: MUSTANG (best of -p/-n/-pt/-nt) vs NOVA, cubes + literals."""
    fsm = benchmark(name)
    effort = _effort(name)
    mustang_runs = [
        encode_fsm(fsm, "mustang", effort=effort, mustang_option=opt)
        for opt in MUSTANG_OPTIONS
    ]
    m_cubes = min(r.cubes for r in mustang_runs)
    m_lits = min(multilevel_literals(r.pla) for r in mustang_runs)
    nova = min((run(name, a) for a in ("ihybrid", "igreedy")),
               key=lambda r: r.cubes)
    n_lits = multilevel_literals(nova.pla)
    rand_lits = [multilevel_literals(r.pla)
                 for r in random_trials(name, fsm.num_states, trials)]
    return {
        "example": name,
        "mustang_cubes": m_cubes,
        "nova_cubes": nova.cubes,
        "mustang_lits": m_lits,
        "nova_lits": n_lits,
        "random_lits": min(rand_lits),
    }


# ----------------------------------------------------------------------
# figures (the ratio plots of Tables VIII / IX / X)
# ----------------------------------------------------------------------
def ratio_series(rows: Sequence[Dict], num_key: str, den_key: str) -> List:
    """y-values of a paper-style ratio plot, in row order."""
    out = []
    for row in rows:
        num, den = row.get(num_key), row.get(den_key)
        out.append(round(num / den, 3) if num and den else None)
    return out


# ----------------------------------------------------------------------
# pretty-printing
# ----------------------------------------------------------------------
def format_table(rows: Sequence[Dict], title: str = "") -> str:
    """Fixed-width text rendering of a list of row dicts."""
    if not rows:
        return f"{title}\n(no rows)"
    keys = list(rows[0].keys())
    widths = {k: max(len(str(k)), *(len(str(r.get(k, ""))) for r in rows))
              for k in keys}
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(k).ljust(widths[k]) for k in keys))
    for r in rows:
        lines.append("  ".join(str(r.get(k, "-")).ljust(widths[k])
                               for k in keys))
    return "\n".join(lines)


def _cell(text: str):
    if text == "None":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_table(text: str) -> List[Dict]:
    """The rows of an untitled :func:`format_table` rendering.

    Cells are split on whitespace (no cell of a table row holds a
    space) and read back as ``None``, ``int``, ``float`` or ``str``;
    a ``-`` cell is a key the row did not have.
    """
    lines = text.splitlines()
    keys = lines[0].split()
    rows = []
    for line in lines[1:]:
        cells = line.split()
        if len(cells) != len(keys):
            raise ValueError(f"table row has {len(cells)} cells for "
                             f"{len(keys)} columns: {line!r}")
        rows.append({k: _cell(c) for k, c in zip(keys, cells) if c != "-"})
    return rows


def totals(rows: Sequence[Dict], keys: Sequence[str]) -> Dict[str, float]:
    """Column totals over rows where every requested key is present."""
    out: Dict[str, float] = {}
    usable = [r for r in rows if all(r.get(k) is not None for k in keys)]
    for k in keys:
        out[k] = sum(r[k] for r in usable)
    return out
