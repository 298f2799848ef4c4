#!/usr/bin/env python3
"""Sweep the small benchmark machines across every encoding algorithm.

Reproduces, on the quick subset, the comparison the paper's Tables
II-IV make: the four NOVA algorithms against KISS, MUSTANG, 1-hot, and
the best of a set of random assignments.  Prints one row per machine
and the area totals, ending with the paper's headline ratios.

Run:  python examples/benchmark_sweep.py            (small subset)
      python examples/benchmark_sweep.py dk14 ex3   (specific machines)
"""

import random
import sys

from repro import benchmark, benchmark_names, encode_fsm


def sweep(names):
    algorithms = ("ihybrid", "igreedy", "iohybrid", "kiss", "mustang")
    header = f"{'example':10s}" + "".join(f"{a:>10s}" for a in algorithms)
    header += f"{'rand-best':>10s}{'1-hot':>8s}"
    print(header)
    print("-" * len(header))
    totals = {a: 0 for a in algorithms}
    totals["random"] = 0
    for name in names:
        fsm = benchmark(name)
        row = f"{name:10s}"
        for algorithm in algorithms:
            r = encode_fsm(fsm, algorithm)
            totals[algorithm] += r.area
            row += f"{r.area:10d}"
            if algorithm == "ihybrid":
                # 1-hot cubes = the MV-minimized cover (Table II)
                onehot_cubes = r.mv_cover_size
        trial_seeds = random.Random(1989).sample(range(1 << 30),
                                                 min(fsm.num_states, 8))
        rand = min(
            encode_fsm(fsm, "random", seed=s).area for s in trial_seeds
        )
        totals["random"] += rand
        row += f"{rand:10d}{onehot_cubes:8d}"
        print(row)
    print("-" * len(header))
    total_row = f"{'TOTAL':10s}"
    for algorithm in algorithms:
        total_row += f"{totals[algorithm]:10d}"
    total_row += f"{totals['random']:10d}"
    print(total_row)

    nova = min(totals["ihybrid"], totals["igreedy"], totals["iohybrid"])
    print(f"\nNOVA best vs KISS    : {nova / totals['kiss']:.2f} "
          f"(paper: about 0.80)")
    print(f"NOVA best vs random  : {nova / totals['random']:.2f} "
          f"(paper: about 0.70)")


def main() -> None:
    names = sys.argv[1:] or benchmark_names("small")
    sweep(names)


if __name__ == "__main__":
    main()
