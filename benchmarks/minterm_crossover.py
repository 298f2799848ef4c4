"""Where minterm-set espresso stops paying: per-call times on paper30.

Records every espresso call of an igreedy encode of each paper30
machine (the MV minimization and the encoded re-minimization), then
times each call on both paths — explicit minterm sets and the
unate-recursive (URP) cubes — with cold caches, best of ``--repeats``,
and prints the URP/minterm time ratio bucketed by ``ceil(log2)`` of the
format's minterm count.  ``espresso.MINTERM_SPACE_MAX`` is chosen from
this table (DESIGN §6 item 17).  Both paths must return the same cubes.

Run: ``PYTHONPATH=src python benchmarks/minterm_crossover.py``
(about a minute on a 2-vCPU host).
"""

from __future__ import annotations

import argparse
import importlib
import math
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


def record_calls() -> List[Call]:
    calls: List[Call] = []
    real = esp.espresso

    def recording(on, dc=None, off=None, max_iter=10, effort="full",
                  budget=None):
        calls.append((on.fmt.parts, list(on.cubes),
                      None if dc is None else list(dc.cubes),
                      None if off is None else list(off.cubes), effort))
        return real(on, dc, off, max_iter, effort, budget)

    modules = [importlib.import_module(m) for m in CALLERS]
    for m in modules:
        m.espresso = recording
    try:
        for name in benchmark_names("paper30"):
            encode_fsm(benchmark(name),
                       options=EncodeOptions(algorithm="igreedy",
                                             cache="off"))
    finally:
        for m in modules:
            m.espresso = real
    return calls


def time_call(call: Call, bound: int, repeats: int) -> Tuple[float, list]:
    parts, on, dc, off, effort = call
    fmt = Format(parts)

    def cover(cubes):
        return None if cubes is None else Cover(fmt, cubes)

    best = math.inf
    saved = esp.MINTERM_SPACE_MAX
    esp.MINTERM_SPACE_MAX = bound
    try:
        for _ in range(repeats):
            minterms._spaces.clear()
            clear_contains_memo()
            t0 = time.perf_counter()
            result = esp.espresso(cover(on), cover(dc), cover(off),
                                  effort=effort)
            best = min(best, time.perf_counter() - t0)
    finally:
        esp.MINTERM_SPACE_MAX = saved
    return best, result.cubes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--max-log2", type=int, default=17,
                    help="skip formats above 2^N minterms (default 17)")
    args = ap.parse_args()
    calls = record_calls()
    buckets: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for call in calls:
        b = math.ceil(math.log2(math.prod(call[0])))
        if b > args.max_log2:
            continue
        urp_s, urp_cubes = time_call(call, 0, args.repeats)
        set_s, set_cubes = time_call(call, 1 << 62, args.repeats)
        assert set_cubes == urp_cubes, call[0]
        buckets[b].append((urp_s, set_s))
    print("| space | calls | URP ms | minterm ms | URP/minterm | "
          "worst call |")
    print("|---|---|---|---|---|---|")
    for b in sorted(buckets):
        xs = buckets[b]
        urp_ms = sum(u for u, _ in xs) * 1e3
        set_ms = sum(s for _, s in xs) * 1e3
        worst = min(u / s for u, s in xs)
        print(f"| 2^{b} | {len(xs)} | {urp_ms:.1f} | {set_ms:.1f} | "
              f"{urp_ms / set_ms:.2f}x | {worst:.2f}x |")
    print(f"{len(calls)} calls recorded, "
          f"{sum(map(len, buckets.values()))} timed")


if __name__ == "__main__":
    main()
