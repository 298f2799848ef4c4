"""Exact two-level minimization for small functions (Quine-McCluskey style).

Provides the classical reference point for the heuristic minimizer:

* :func:`all_primes` — every prime implicant of ``on + dc`` by iterated
  consensus with single-cube containment (valid for multiple-valued
  positional covers: consensus is taken per variable);
* :func:`exact_minimize` — a minimum-cardinality cover of the on-set by
  primes, via essential-prime extraction, row/column dominance, and
  branch-and-bound over the cyclic core.

Intended for functions with at most a few thousand minterms — the
test-suite uses it to check that the espresso loop is close to optimal,
and the benchmarks report the gap (``bench_substrate``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.logic import backend
from repro.logic.cover import Cover
from repro.logic.cube import Format


class TooLarge(Exception):
    """Raised when the instance exceeds the exact solver's size guard."""


def all_primes(on: Cover, dc: Optional[Cover] = None,
               max_cubes: int = 4000) -> Cover:
    """All prime implicants of the function ``on + dc``."""
    fmt = on.fmt
    pool: Set[int] = set(on.cubes)
    if dc is not None:
        pool.update(dc.cubes)
    cubes = _scc_set(fmt, pool)
    if len(cubes) > max_cubes:
        raise TooLarge(f"prime set exceeded {max_cubes} cubes")
    changed = True
    while changed:
        changed = False
        current = sorted(cubes)
        new: Set[int] = set()
        for i, a in enumerate(current):
            # one batched scan replaces the inner pairwise loop
            # (consensus is symmetric, so scanning the tail covers each
            # pair once)
            for c in backend.consensus_scan(fmt, current[i + 1:], a):
                if fmt.is_empty(c):
                    continue
                if backend.contain_any(fmt, current, c):
                    continue
                new.add(c)
        if new:
            cubes = _scc_set(fmt, cubes | new)
            if len(cubes) > max_cubes:
                raise TooLarge(f"prime set exceeded {max_cubes} cubes")
            changed = True
    out = Cover(fmt)
    out.cubes = sorted(cubes)
    return out


def _scc_set(fmt: Format, cubes: Set[int]) -> Set[int]:
    """Single-cube containment over a set of cubes.

    Delegates to the batched kernel; the surviving *set* is independent
    of visit order (a cube is dropped iff some other cube properly
    contains it, and containment is transitive), so the kernel's
    canonical ordering returns exactly the set the old sequential scan
    kept.
    """
    return set(backend.single_cube_containment(fmt, list(cubes)))


def _on_minterms(on: Cover, max_minterms: int) -> List[int]:
    fmt = on.fmt
    seen: Set[int] = set()
    import itertools

    choices = [[1 << p for p in range(parts)] for parts in fmt.parts]
    total = 1
    for ch in choices:
        total *= len(ch)
        if total > 4 * max_minterms:
            break
    out: List[int] = []
    for combo in itertools.product(*choices):
        m = 0
        for v, f in enumerate(combo):
            m |= f << fmt.offsets[v]
        for c in on.cubes:
            if m & ~c == 0:
                if m not in seen:
                    seen.add(m)
                    out.append(m)
                    if len(out) > max_minterms:
                        raise TooLarge(
                            f"on-set exceeds {max_minterms} minterms")
                break
    return out


def exact_minimize(on: Cover, dc: Optional[Cover] = None,
                   max_minterms: int = 2048) -> Cover:
    """A minimum-cardinality prime cover of the on-set."""
    fmt = on.fmt
    if not on.cubes:
        return Cover(fmt)
    primes = all_primes(on, dc)
    minterms = _on_minterms(on, max_minterms)
    if dc is not None and dc.cubes:
        # minterms inside the dc-set need no cover (espresso semantics:
        # the dc-set overrides the on-set where they overlap)
        minterms = [m for m in minterms
                    if not any(m & ~c == 0 for c in dc.cubes)]
    covers_of: Dict[int, List[int]] = {}  # minterm -> prime indices
    prime_rows: List[Set[int]] = []
    for pi, p in enumerate(primes.cubes):
        row = {m for m in minterms if m & ~p == 0}
        prime_rows.append(row)
    for mi, m in enumerate(minterms):
        covers_of[m] = [pi for pi, row in enumerate(prime_rows) if m in row]
        if not covers_of[m]:
            raise AssertionError("prime generation missed a minterm")
    chosen = _solve_covering(minterms, prime_rows, covers_of)
    out = Cover(fmt)
    out.cubes = [primes.cubes[pi] for pi in sorted(chosen)]
    return out


def _solve_covering(
    minterms: List[int],
    prime_rows: List[Set[int]],
    covers_of: Dict[int, List[int]],
) -> Set[int]:
    """Minimum set cover by reduction + branch and bound."""
    # greedy upper bound
    best = _greedy_cover(set(minterms), prime_rows)
    state_best: List[Set[int]] = [best]

    def bound(uncovered: Set[int], chosen: Set[int]) -> int:
        # lower bound: independent minterms needing distinct primes
        remaining = set(uncovered)
        need = 0
        while remaining:
            m = next(iter(remaining))
            need += 1
            hit = set()
            for pi in covers_of[m]:
                hit |= prime_rows[pi] & remaining
            remaining -= hit | {m}
        return len(chosen) + need

    def recurse(uncovered: Set[int], chosen: Set[int]) -> None:
        if not uncovered:
            if len(chosen) < len(state_best[0]):
                state_best[0] = set(chosen)
            return
        if bound(uncovered, chosen) >= len(state_best[0]):
            return
        # branch on the minterm with the fewest covering primes
        m = min(uncovered, key=lambda x: len(covers_of[x]))
        for pi in sorted(covers_of[m],
                         key=lambda p: -len(prime_rows[p] & uncovered)):
            recurse(uncovered - prime_rows[pi], chosen | {pi})

    recurse(set(minterms), set())
    return state_best[0]


def _greedy_cover(uncovered: Set[int],
                  prime_rows: List[Set[int]]) -> Set[int]:
    chosen: Set[int] = set()
    left = set(uncovered)
    while left:
        pi = max(range(len(prime_rows)),
                 key=lambda p: len(prime_rows[p] & left))
        gain = prime_rows[pi] & left
        if not gain:
            raise AssertionError("greedy cover stuck: uncoverable minterm")
        chosen.add(pi)
        left -= gain
    return chosen
