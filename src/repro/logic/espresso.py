"""ESPRESSO-style heuristic two-level minimization (EXPAND / REDUCE / IRREDUNDANT).

Two validity oracles are supported for EXPAND:

* an explicit off-set (as in ``minimize(on, dc, off)`` used by NOVA's
  symbolic minimization loop) — a raise is legal when the grown cube
  stays at distance >= 1 from every off-cube;
* no off-set — a raise is legal when the grown cube is still an
  implicant of ``on + dc``, decided by a tautology call.  This avoids
  computing a global complement, which can blow up on wide covers.

The iteration accepts a :class:`repro.perf.Budget`: when the budget
expires mid-loop the best cover found so far is returned (the result is
always a valid cover of the function — only its quality degrades).
After the first non-improving pass a LASTGASP retry runs REDUCE with
the opposite cube ordering before giving up, which recovers the ties
and near-misses the plain loop used to discard.
"""

from __future__ import annotations

import time
from typing import Optional

from repro import perf
from repro.errors import BudgetExhausted
from repro.logic import backend
from repro.logic.cover import Cover
from repro.perf.budget import Budget, ambient, tick


def _is_implicant(cube: int, on_dc: Cover) -> bool:
    return on_dc.contains_cube(cube)


def _valid_against_off(cube: int, off: Cover) -> bool:
    return not off.any_intersects(cube)


def _expand_cube(cube: int, on_dc: Cover, off: Optional[Cover]) -> int:
    """Grow *cube* to a prime implicant by raising one position at a time.

    Raising is monotone: once a raise fails it fails for every superset,
    so a single pass over the candidate positions yields a prime.
    Positions blocked by fewer off-cubes are tried first so large
    expansions happen early.
    """
    fmt = on_dc.fmt if off is None else off.fmt
    stats = perf.STATS
    candidates = [b for b in range(fmt.width) if not (cube >> b) & 1]
    if off is not None:
        # order by how many off-cubes conflict with each single raise
        counts = backend.intersect_counts(
            fmt, off.cubes, [cube | (1 << b) for b in candidates])
        blocking = dict(zip(candidates, counts))
        candidates.sort(key=blocking.__getitem__)
    if stats is not None:
        stats.expand_cubes += 1
        stats.expand_attempts += len(candidates)
    for bit in candidates:
        tick()
        grown = cube | (1 << bit)
        if off is not None:
            ok = not backend.any_intersects(fmt, off.cubes, grown)
        else:
            ok = _is_implicant(grown, on_dc)
        if ok:
            cube = grown
            if stats is not None:
                stats.expand_raises += 1
    return cube


def expand(f: Cover, on_dc: Cover, off: Optional[Cover] = None) -> Cover:
    """Expand every cube of *f* to a prime, dropping newly covered cubes."""
    fmt = f.fmt
    # expand small cubes first: they benefit the most and their primes
    # tend to swallow neighbouring cubes
    counts = backend.minterm_counts(fmt, f.cubes)
    order = sorted(range(len(f.cubes)), key=counts.__getitem__)
    covered = [False] * len(f.cubes)
    out = Cover(fmt)
    for i in order:
        tick()
        if covered[i]:
            continue
        prime = _expand_cube(f.cubes[i], on_dc, off)
        out.cubes.append(prime)
        swallowed = backend.contained_mask(fmt, f.cubes, prime)
        for j in order:
            if swallowed[j]:
                covered[j] = True
    return out.single_cube_containment()


def irredundant(f: Cover, dc: Optional[Cover] = None) -> Cover:
    """Greedy irredundant cover: drop cubes covered by the rest of f + dc."""
    fmt = f.fmt
    counts = backend.minterm_counts(fmt, f.cubes)
    # try dropping small cubes first
    order = sorted(range(len(f.cubes)), key=counts.__getitem__)
    kept = [f.cubes[i] for i in order]
    i = 0
    while i < len(kept):
        tick()
        c = kept[i]
        rest = Cover(fmt)
        rest.cubes = kept[:i] + kept[i + 1:]
        if dc is not None:
            rest.cubes = rest.cubes + list(dc.cubes)
        if rest.contains_cube(c):
            kept.pop(i)
        else:
            i += 1
    out = Cover(fmt)
    out.cubes = kept
    return out


def reduce_cover(
    f: Cover, dc: Optional[Cover] = None, largest_first: bool = True
) -> Cover:
    """Replace each cube by its maximal reduction (SCCC rule).

    ``c_new = c  ∩  supercube(complement((F - c + D) cofactored by c))``.
    Cubes are processed in place so later reductions see earlier ones,
    keeping the cover equivalent to the original function at all times.
    ``largest_first=False`` reverses the processing order — the
    LASTGASP retry uses it to escape the ordering-dependent local
    minimum the default order settles into.
    """
    fmt = f.fmt
    # reduce large cubes first, as espresso does (LASTGASP: smallest first)
    counts = backend.minterm_counts(fmt, f.cubes)
    order = sorted(range(len(f.cubes)), key=counts.__getitem__,
                   reverse=largest_first)
    cubes = [f.cubes[i] for i in order]
    for i in range(len(cubes)):
        tick()
        c = cubes[i]
        rest = Cover(fmt)
        rest.cubes = cubes[:i] + cubes[i + 1:]
        if dc is not None:
            rest.cubes = rest.cubes + list(dc.cubes)
        comp = rest.cofactor(c).complement()
        if not comp.cubes:
            cubes[i] = 0  # cube entirely covered by the rest: drop
            continue
        sccc = 0
        for k in comp.cubes:
            sccc |= k
        cubes[i] = c & sccc
    out = Cover(fmt)
    for c in cubes:
        if c and not fmt.is_empty(c):
            out.cubes.append(c)
    return out


def _one_pass(
    best: Cover,
    dc: Cover,
    on_dc: Cover,
    off: Optional[Cover],
    largest_first: bool = True,
) -> Cover:
    """One REDUCE / EXPAND / IRREDUNDANT round, individually timed."""
    with perf.timer("reduce"):
        f = reduce_cover(best, dc, largest_first=largest_first)
    with perf.timer("expand"):
        f = expand(f, on_dc, off)
    with perf.timer("irredundant"):
        f = irredundant(f, dc)
    return f


def espresso(
    on: Cover,
    dc: Optional[Cover] = None,
    off: Optional[Cover] = None,
    max_iter: int = 10,
    effort: str = "full",
    budget: Optional[Budget] = None,
) -> Cover:
    """Heuristically minimize ``on`` against optional ``dc`` / explicit ``off``.

    Returns a prime, (greedily) irredundant cover of the function whose
    on-set is covered by the result plus ``dc`` and which never
    intersects ``off``.  ``effort='low'`` runs a single
    expand+irredundant pass (used for the very largest benchmark
    machines where the reduce/expand iteration is too slow in pure
    Python).  A *budget* bounds the iteration: when it expires the best
    cover found so far is returned immediately.
    """
    fmt = on.fmt
    stats = perf.STATS
    t0 = time.perf_counter() if stats is not None else 0.0
    if dc is None:
        dc = Cover(fmt)
    on_dc = on + dc
    f = on.single_cube_containment()
    with perf.timer("expand"):
        f = expand(f, on_dc, off)
    with perf.timer("irredundant"):
        f = irredundant(f, dc)
    if effort == "low":
        if stats is not None:
            stats.add_time("espresso", time.perf_counter() - t0)
        return f
    best = f
    best_cost = f.cost()
    # the improvement loop runs with the budget's deadline installed as
    # the ambient tick target, so the per-cube ticks inside the passes
    # can interrupt a runaway REDUCE/EXPAND; the incumbent `best` is a
    # complete valid cover at all times, so a mid-pass interruption just
    # means returning it early
    try:
        with ambient(budget):
            for _ in range(max_iter):
                if budget is not None and budget.expired():
                    break
                f = _one_pass(best, dc, on_dc, off)
                if stats is not None:
                    stats.espresso_passes += 1
                cost = f.cost()
                if cost < best_cost:
                    best, best_cost = f, cost
                    continue
                if cost == best_cost:
                    # a tie is as good as the incumbent and is the
                    # fixpoint the next pass would start from — keep it
                    # instead of discarding
                    best = f
                if budget is not None and budget.expired():
                    break
                # LASTGASP: one retry with the reversed reduce ordering
                # before giving up; accept only a strict improvement
                if stats is not None:
                    stats.lastgasp_attempts += 1
                g = _one_pass(best, dc, on_dc, off, largest_first=False)
                if stats is not None:
                    stats.espresso_passes += 1
                g_cost = g.cost()
                if g_cost < best_cost:
                    if stats is not None:
                        stats.lastgasp_wins += 1
                    best, best_cost = g, g_cost
                    continue
                break
    except BudgetExhausted:
        pass  # deadline mid-pass: degrade to the incumbent cover
    if stats is not None:
        stats.add_time("espresso", time.perf_counter() - t0)
    return best


def minimize(on: Cover, dc: Cover, off: Cover, effort: str = "full",
             budget: Optional[Budget] = None) -> Cover:
    """NOVA-style ``minimize(on, dc, off)`` with an explicit off-set."""
    return espresso(on, dc=dc, off=off, effort=effort, budget=budget)
