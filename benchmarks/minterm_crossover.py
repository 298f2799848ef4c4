"""Where minterm-set espresso stops paying: per-call times on real calls.

Records every espresso call of an igreedy encode of each paper30
machine and of the Table II–IV rows of the ``small`` set
(:mod:`repro.eval.tables`, the rows the ``table`` perfbench workload
times): the MV minimizations and the encoded re-minimizations.  Then
times each call on both paths — the carried minterm-set loop and the
unate-recursive (URP) cubes — with cold caches, best of ``--repeats``,
and prints the URP/minterm time ratio bucketed by ``ceil(log2)`` of the
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


def time_call(call: Call, on_sets: bool,
              repeats: int) -> Tuple[float, list]:
    parts, on, dc, off, effort = call
    fmt = Format(parts)

    def cover(cubes):
        return None if cubes is None else Cover(fmt, cubes)

    best = math.inf
    saved = esp.MINTERM_SPACE_MAX, esp.BINARY_SPACE_MAX
    bound = 1 << 62 if on_sets else 0
    esp.MINTERM_SPACE_MAX = esp.BINARY_SPACE_MAX = bound
    try:
        for _ in range(repeats):
            minterms._spaces.clear()
            clear_contains_memo()
            t0 = time.perf_counter()
            result = esp.espresso(cover(on), cover(dc), cover(off),
                                  effort=effort)
            best = min(best, time.perf_counter() - t0)
    finally:
        esp.MINTERM_SPACE_MAX, esp.BINARY_SPACE_MAX = saved
    return best, result.cubes


def all_binary(parts: Tuple[int, ...]) -> bool:
    return max(parts[:-1], default=2) <= 2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--max-log2", type=int, default=18,
                    help="skip formats above 2^N minterms (default 18)")
    args = ap.parse_args()
    os.environ["NOVA_CACHE"] = "off"  # the table rows encode by default
    calls = record_calls()
    buckets: Dict[Tuple[bool, int], List[Tuple[float, float]]] = \
        defaultdict(list)
    losers = []
    worst_covered = math.inf
    for call in calls:
        b = math.ceil(math.log2(math.prod(call[0])))
        if b > args.max_log2:
            continue
        urp_s, urp_cubes = time_call(call, False, args.repeats)
        set_s, set_cubes = time_call(call, True, args.repeats)
        assert set_cubes == urp_cubes, call[0]
        buckets[all_binary(call[0]), b].append((urp_s, set_s))
        covered = esp._space(Cover(Format(call[0]), call[1])) is not None
        if covered:
            worst_covered = min(worst_covered, urp_s / set_s)
        if set_s > urp_s:
            losers.append((urp_s / set_s, call, urp_s, set_s, covered))
    print("| inputs | space | calls | URP ms | minterm ms | URP/minterm | "
          "worst call |")
    print("|---|---|---|---|---|---|---|")
    for binary, b in sorted(buckets, key=lambda k: (not k[0], k[1])):
        xs = buckets[binary, b]
        urp_ms = sum(u for u, _ in xs) * 1e3
        set_ms = sum(s for _, s in xs) * 1e3
        worst = min(u / s for u, s in xs)
        print(f"| {'binary' if binary else 'MV'} | 2^{b} | {len(xs)} | "
              f"{urp_ms:.1f} | {set_ms:.1f} | {urp_ms / set_ms:.2f}x | "
              f"{worst:.2f}x |")
    print(f"{len(calls)} distinct calls recorded, "
          f"{sum(map(len, buckets.values()))} timed; worst call the "
          f"dispatch covers: {worst_covered:.2f}x")
    for ratio, call, urp_s, set_s, covered in sorted(losers):
        print(f"loses {ratio:.2f}x ({urp_s * 1e3:.2f} vs "
              f"{set_s * 1e3:.2f} ms), {len(call[1])} cubes"
              f"{', covered' if covered else ''}: parts {call[0]}")


if __name__ == "__main__":
    main()
