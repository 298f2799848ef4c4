"""Golden-signature gate: encode results must not drift across changes.

Encodes the 91-pair baseline — the 13 SMALL machines under each of the
7 deterministic NOVA algorithms — and compares every result with its
committed entry in ``benchmarks/golden_signatures.json``.  A second,
slower slice (``--paper30``) pins ihybrid and igreedy on the 30
machines of the paper's tables, where the bounded embedding search
(``semiexact_code``) does most of the work.  A signature
holds everything that fingerprints a result: state codes, code width,
cube count, area, constraint-satisfaction weights, MV cover size and a
sha256 of the encoded PLA cover.  Wall-clock is never part of it.

    PYTHONPATH=src python benchmarks/check_signatures.py           # 91 pairs
    PYTHONPATH=src python benchmarks/check_signatures.py --quick   # fast slice
    PYTHONPATH=src python benchmarks/check_signatures.py --paper30 # 60 pairs
    PYTHONPATH=src python benchmarks/check_signatures.py --update  # rewrite

``--quick`` checks the slice the tier-1 suite checks
(``tests/test_signatures.py``): every non-iexact pair, plus iexact on
the machines where it finishes well within a second.  ``--update``
rewrites the entries of the pairs it ran; any diff it leaves in the
golden file must be explained in CHANGES.md.

Exit status: 0 when every checked pair matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.encoding.nova import encode_fsm
from repro.fsm.benchmarks import benchmark, benchmark_names

GOLDEN = Path(__file__).with_name("golden_signatures.json")

ALGORITHMS = ("iexact", "ihybrid", "igreedy", "iohybrid", "iovariant",
              "kiss", "onehot")

#: Machines whose iexact encode finishes well within a second.  On the
#: other five iexact runs long, so only the full matrix covers them:
#: ex5 (~1 s) finds a code; lion9 and train11 (~3-5 s) exhaust their
#: level vectors, and dk15 and ex3 (~10-15 s) stop at the sweep's total
#: work cap (``iexact.SWEEP_MAX_WORK``); all four fall back to ihybrid.
QUICK_IEXACT = ("lion", "train4", "bbtas", "beecount", "dk27", "shiftreg",
                "modulo12", "dol")

#: Algorithms of the paper30 slice: the two embedding heuristics that
#: run on every machine of the paper's tables.
PAPER30_ALGORITHMS = ("ihybrid", "igreedy")

Pair = Tuple[str, str]


def all_pairs() -> List[Pair]:
    """The 91-pair matrix, machine-major."""
    return [(m, a) for m in benchmark_names("small") for a in ALGORITHMS]


def quick_pairs() -> List[Pair]:
    """Every non-iexact pair plus the fast iexact ones."""
    return [(m, a) for m, a in all_pairs()
            if a != "iexact" or m in QUICK_IEXACT]


def paper30_pairs() -> List[Pair]:
    """ihybrid and igreedy on the paper30 machines, machine-major.

    Eight of the machines are SMALL ones too; their pairs share one
    golden entry with the 91-pair matrix.
    """
    return [(m, a) for m in benchmark_names("paper30")
            for a in PAPER30_ALGORITHMS]


def key(machine: str, algorithm: str) -> str:
    return f"{machine}/{algorithm}"


def signature(machine: str, algorithm: str) -> Dict[str, object]:
    """Everything about an encode result that must stay bit-identical."""
    res = encode_fsm(benchmark(machine), algorithm, cache="off")
    cubes = json.dumps(list(res.pla.cover.cubes)).encode()
    return {
        "codes": list(res.state_encoding.codes),
        "nbits": res.state_encoding.nbits,
        "cubes": res.cubes,
        "area": res.area,
        "satisfied_weight": res.satisfied_weight,
        "unsatisfied_weight": res.unsatisfied_weight,
        "mv_cover_size": res.mv_cover_size,
        "pla_sha256": hashlib.sha256(cubes).hexdigest(),
    }


def load_golden() -> Dict[str, Dict[str, object]]:
    if not GOLDEN.exists():
        return {}
    with GOLDEN.open() as fh:
        return json.load(fh)


def save_golden(golden: Dict[str, Dict[str, object]]) -> None:
    """One pair per line, machine-major, so a drift diffs as one line."""
    pairs = all_pairs()
    pairs += [p for p in paper30_pairs() if p not in pairs]
    order = {key(m, a): i for i, (m, a) in enumerate(pairs)}
    names = sorted(golden, key=lambda k: (order.get(k, len(order)), k))
    lines = [f"  {json.dumps(k)}: {json.dumps(golden[k], sort_keys=True)}"
             for k in names]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    slice_ = parser.add_mutually_exclusive_group()
    slice_.add_argument("--quick", action="store_true",
                        help="the tier-1 slice instead of all 91 pairs")
    slice_.add_argument("--paper30", action="store_true",
                        help="ihybrid and igreedy on the paper30 machines "
                             "instead of the 91 SMALL pairs")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden entries of the pairs run")
    args = parser.parse_args(argv)

    if args.paper30:
        pairs = paper30_pairs()
    else:
        pairs = quick_pairs() if args.quick else all_pairs()
    golden = load_golden()
    print(f"checking {len(pairs)} (machine, algorithm) pairs "
          f"against {GOLDEN.name}")
    t0 = time.perf_counter()
    mismatches = []
    for i, (m, a) in enumerate(pairs, 1):
        got = signature(m, a)
        want = golden.get(key(m, a))
        if got != want:
            bad = (["missing"] if want is None else
                   sorted(f for f in got if got[f] != want.get(f)))
            mismatches.append(key(m, a))
            print(f"  {'UPDATE' if args.update else 'MISMATCH'} "
                  f"{key(m, a)}: {', '.join(bad)}")
            golden[key(m, a)] = got
        if i % 10 == 0 or i == len(pairs):
            print(f"  {i}/{len(pairs)} checked "
                  f"({time.perf_counter() - t0:.1f}s)")
    elapsed = time.perf_counter() - t0
    if args.update:
        save_golden(golden)
        print(f"wrote {GOLDEN.name}: {len(mismatches)} of {len(pairs)} "
              f"entries changed ({elapsed:.1f}s)")
        return 0
    if mismatches:
        print(f"FAIL: {len(mismatches)} of {len(pairs)} pairs differ "
              f"from {GOLDEN.name}")
        return 1
    print(f"OK: all {len(pairs)} pairs match {GOLDEN.name} "
          f"({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
