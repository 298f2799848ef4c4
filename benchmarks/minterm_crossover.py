"""Where minterm-set espresso stops paying: per-call times on real calls.

Records every espresso call of an igreedy encode of each paper30
machine and of the Table II–IV rows of the ``small`` set
(:mod:`repro.eval.tables`, the rows the ``table`` perfbench workload
times): the MV minimizations and the encoded re-minimizations.  Then
times each call on both paths — the carried minterm-set loop and the
unate-recursive (URP) cubes — with cold caches, as the median of
``--repeats`` alternating repeats, and prints the URP/minterm time
ratio, with its per-repeat spread, bucketed by ``ceil(log2)`` of the
format's minterm count, split into formats whose inputs are all binary
and formats with a multiple-valued input, then the ``parts`` and cube
count of every call the minterm path loses, and whether the dispatch
(``espresso._space``) sends it there.  The bounds
``espresso.MINTERM_SPACE_MAX``, ``BINARY_SPACE_MAX`` and
``BINARY_WORK_MAX`` are chosen from this output (DESIGN §6 item 17):
no call the dispatch covers may lose.  Both paths must return the same
cubes.

Run: ``PYTHONPATH=src python benchmarks/minterm_crossover.py``
(a few minutes on a 2-vCPU host; the result cache is switched off).
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.api import EncodeOptions, encode_fsm
from repro.fsm.benchmarks import benchmark, benchmark_names
from repro.logic import minterms
from repro.logic.cover import Cover, clear_contains_memo
from repro.logic.cube import Format

esp = importlib.import_module("repro.logic.espresso")

#: modules that call espresso during an encode
CALLERS = ("repro.eval.instantiate", "repro.symbolic.symbolic_min",
           "repro.constraints.input_constraints", "repro.encoding.osym")

Call = Tuple[Tuple[int, ...], List[int], Optional[List[int]],
             Optional[List[int]], str]


def run_workloads() -> None:
    """The encodes whose espresso calls are recorded."""
    from repro.eval import tables

    for name in benchmark_names("paper30"):
        encode_fsm(benchmark(name),
                   options=EncodeOptions(algorithm="igreedy", cache="off"))
    for name in benchmark_names("small"):
        tables.table2_row(name, include_iexact=False)
        tables.table3_row(name)
        tables.table4_row(name)


def record_calls() -> List[Call]:
    calls: List[Call] = []
    seen = set()
    real = esp.espresso

    def recording(on, dc=None, off=None, max_iter=10, effort="full",
                  budget=None):
        call = (on.fmt.parts, list(on.cubes),
                None if dc is None else list(dc.cubes),
                None if off is None else list(off.cubes), effort)
        key = repr(call)
        if key not in seen:  # table rows repeat encodes
            seen.add(key)
            calls.append(call)
        return real(on, dc, off, max_iter, effort, budget)

    modules = [importlib.import_module(m) for m in CALLERS]
    for m in modules:
        m.espresso = recording
    try:
        run_workloads()
    finally:
        for m in modules:
            m.espresso = real
    return calls


def time_call(call: Call, on_sets: bool) -> Tuple[float, list]:
    """One cold run of *call* on one path: (seconds, result cubes)."""
    parts, on, dc, off, effort = call
    fmt = Format(parts)

    def cover(cubes):
        return None if cubes is None else Cover(fmt, cubes)

    saved = esp.MINTERM_SPACE_MAX, esp.BINARY_SPACE_MAX
    bound = 1 << 62 if on_sets else 0
    esp.MINTERM_SPACE_MAX = esp.BINARY_SPACE_MAX = bound
    try:
        minterms._spaces.clear()
        clear_contains_memo()
        t0 = time.perf_counter()
        result = esp.espresso(cover(on), cover(dc), cover(off),
                              effort=effort)
        return time.perf_counter() - t0, result.cubes
    finally:
        esp.MINTERM_SPACE_MAX, esp.BINARY_SPACE_MAX = saved


class Timing:
    """Alternating cold repeats of one call on both paths.

    The paths run in turns (URP first on even repeats, minterm first on
    odd ones), so a slow stretch of a shared host hits both; the call's
    times are the medians, and its URP/minterm ratio is the median of
    the per-repeat ratios, with their lowest and highest as the spread.
    """

    def __init__(self, call: Call, repeats: int) -> None:
        urp: List[float] = []
        sets: List[float] = []
        for r in range(repeats):
            for on_sets in ((False, True) if r % 2 == 0
                            else (True, False)):
                seconds, cubes = time_call(call, on_sets)
                (sets if on_sets else urp).append(seconds)
                if on_sets:
                    self.set_cubes = cubes
                else:
                    self.urp_cubes = cubes
        ratios = [u / m for u, m in zip(urp, sets)]
        self.urp_s = statistics.median(urp)
        self.set_s = statistics.median(sets)
        self.ratio = statistics.median(ratios)
        self.spread = (min(ratios), max(ratios))

    def describe(self) -> str:
        lo, hi = self.spread
        return f"{self.ratio:.2f}x (per repeat {lo:.2f}-{hi:.2f}x)"


def all_binary(parts: Tuple[int, ...]) -> bool:
    return max(parts[:-1], default=2) <= 2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5,
                    help="alternating cold repeats per call (default 5)")
    ap.add_argument("--max-log2", type=int, default=18,
                    help="skip formats above 2^N minterms (default 18)")
    args = ap.parse_args()
    os.environ["NOVA_CACHE"] = "off"  # the table rows encode by default
    calls = record_calls()
    buckets: Dict[Tuple[bool, int], List[Timing]] = defaultdict(list)
    losers = []
    worst_covered: Optional[Timing] = None
    for call in calls:
        b = math.ceil(math.log2(math.prod(call[0])))
        if b > args.max_log2:
            continue
        timing = Timing(call, args.repeats)
        assert timing.set_cubes == timing.urp_cubes, call[0]
        buckets[all_binary(call[0]), b].append(timing)
        covered = esp._space(Cover(Format(call[0]), call[1])) is not None
        if covered and (worst_covered is None
                        or timing.ratio < worst_covered.ratio):
            worst_covered = timing
        if timing.ratio < 1:
            losers.append((timing.ratio, call, timing, covered))
    print("| inputs | space | calls | URP ms | minterm ms | URP/minterm | "
          "worst call |")
    print("|---|---|---|---|---|---|---|")
    for binary, b in sorted(buckets, key=lambda k: (not k[0], k[1])):
        xs = buckets[binary, b]
        urp_ms = sum(t.urp_s for t in xs) * 1e3
        set_ms = sum(t.set_s for t in xs) * 1e3
        worst = min(xs, key=lambda t: t.ratio)
        print(f"| {'binary' if binary else 'MV'} | 2^{b} | {len(xs)} | "
              f"{urp_ms:.1f} | {set_ms:.1f} | {urp_ms / set_ms:.2f}x | "
              f"{worst.describe()} |")
    covered_text = "none" if worst_covered is None \
        else worst_covered.describe()
    print(f"{len(calls)} distinct calls recorded, "
          f"{sum(map(len, buckets.values()))} timed, medians of "
          f"{args.repeats} alternating repeats; worst call the dispatch "
          f"covers: {covered_text}")
    for _, call, timing, covered in sorted(losers, key=lambda x: x[0]):
        print(f"loses {timing.describe()} ({timing.urp_s * 1e3:.2f} vs "
              f"{timing.set_s * 1e3:.2f} ms), {len(call[1])} cubes"
              f"{', covered' if covered else ''}: parts {call[0]}")


if __name__ == "__main__":
    main()
