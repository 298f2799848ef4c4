"""ESPRESSO-style heuristic two-level minimization (EXPAND / REDUCE / IRREDUNDANT).

Two validity oracles are supported for EXPAND:

* an explicit off-set (as in ``minimize(on, dc, off)`` used by NOVA's
  symbolic minimization loop) — a raise is legal when the grown cube
  meets no off-cube;
* no off-set — a raise is legal when the grown cube is still an
  implicant of ``on + dc``.  This avoids computing a global complement,
  which can blow up on wide covers.

Each phase has two exact implementations that return the same cubes in
the same order:

* on formats of at most :data:`MINTERM_SPACE_MAX` minterms, explicit
  minterm sets (:mod:`repro.logic.minterms`).  Both oracles become one
  forbidden set (the off-set, or the complement of ``on + dc``) and a
  raise is legal when the minterms it adds miss it; REDUCE keeps the
  supercube of the minterms of a cube outside the rest of the cover,
  and IRREDUNDANT drops a cube whose minterms the rest covers, both in
  one sweep with prefix and suffix unions;
* on wider formats, cubes and the unate-recursive paradigm.  Against an
  off-set, one scan per cube yields the off-cubes one variable away;
  their fields in that variable form the set of forbidden raises,
  updated incrementally as the cube grows
  (see :func:`_expand_against_off`); against ``on + dc`` each raise is
  a tautology call.  REDUCE computes the smallest cube containing the
  part of a cube the rest does not cover directly by
  :func:`repro.logic.urp.sccc` rather than from a complement, and
  IRREDUNDANT asks a tautology call per cube.

The iteration accepts a :class:`repro.perf.Budget`: when the budget
expires mid-loop the best cover found so far is returned (the result is
always a valid cover of the function — only its quality degrades).
After the first non-improving pass a LASTGASP retry runs REDUCE with
the opposite cube ordering before giving up, which recovers the ties
and near-misses the plain loop used to discard.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro import perf
from repro.errors import BudgetExhausted
from repro.logic import backend, minterms, urp
from repro.logic.cover import Cover
from repro.logic.cube import Format
from repro.logic.minterms import Space
from repro.perf.budget import Budget, ambient, tick

#: Formats with at most this many minterms run REDUCE, EXPAND and
#: IRREDUNDANT on explicit minterm sets (:mod:`repro.logic.minterms`);
#: wider ones use the unate-recursive paradigm.  Both give the same
#: covers; the bound is where the minterm path stops being faster per
#: espresso call (DESIGN §6 item 17).
MINTERM_SPACE_MAX = 1 << 13


def _space(fmt: Format) -> Optional[Space]:
    """The minterm space of *fmt* when it is small enough, else None."""
    if minterms.size(fmt) > MINTERM_SPACE_MAX:
        return None
    return minterms.space(fmt)


def _is_implicant(cube: int, on_dc: Cover) -> bool:
    return on_dc.contains_cube(cube)


def _expand_cube(cube: int, on_dc: Cover, off: Optional[Cover],
                 forbidden: Optional[int] = None) -> int:
    """Grow *cube* to a prime implicant by raising one position at a time.

    Raising is monotone: once a raise fails it fails for every superset,
    so a single pass over the candidate positions, lowest bit first,
    yields a prime.  With no off-set each raise is an implicant test
    against ``on + dc``; with one, :func:`_expand_against_off` decides
    every raise from state kept across the raises.  On a small format
    *forbidden* is the minterm set no raise may reach (the off-set, or
    the complement of ``on + dc``) and :func:`_expand_in_space` decides.
    """
    fmt = on_dc.fmt if off is None else off.fmt
    stats = perf.STATS
    if stats is not None:
        stats.expand_cubes += 1
        stats.expand_attempts += (fmt.universe & ~cube).bit_count()
    if forbidden is not None:
        return _expand_in_space(minterms.space(fmt), fmt, cube, forbidden,
                                off is None, stats)
    if off is not None:
        return _expand_against_off(fmt, cube, off.cubes, stats)
    for bit in range(fmt.width):
        if (cube >> bit) & 1:
            continue
        tick()
        grown = cube | (1 << bit)
        if _is_implicant(grown, on_dc):
            cube = grown
            if stats is not None:
                stats.expand_raises += 1
    return cube


def _expand_against_off(fmt, cube: int, off_cubes, stats) -> int:
    """EXPAND against an explicit off-set, one pass over the off-cubes.

    A raise is legal when the grown cube meets no off-cube.  One scan
    records, per off-cube, the fields that are empty in ``cube & off``
    (their count is the distance).  A raise changes one variable, so it
    can only make a *distance-1* off-cube intersect, and only by adding
    a bit of that off-cube's single empty field: the union of those
    fields is the ``forbidden`` raise mask.  A raise of bit ``b`` in
    variable ``v`` lowers by one the distance of the off-cubes that are
    empty in ``v`` and hold ``b``; one reaching distance 1 adds its
    field to ``forbidden``.  A distance-0 off-cube (the cube already
    meets the off-set) forbids every raise.  ``forbidden`` only grows,
    so the free positions are raised lowest first in a single sweep.

    Trying positions in increasing order of the off-cubes each single
    raise would meet (the classic blocking order) would raise the same
    bits: a position with a non-zero count is exactly one forbidden
    from the start, and it stays forbidden.
    """
    lo = fmt.binary_lo
    mv_masks = fmt.mv_masks
    forbidden = 0
    pending = []  # (off-cube, its empty fields, distance), distance >= 2
    for o in off_cubes:
        x = cube & o
        e = lo & ~(x | x >> 1)
        empty = e | e << 1
        dist = e.bit_count()
        for m in mv_masks:
            if not x & m:
                empty |= m
                dist += 1
        if dist == 1:
            forbidden |= o & empty
        elif dist == 0:
            return cube
        else:
            pending.append((o, empty, dist))
    masks = fmt.masks
    bit_var = fmt.bit_var
    free = fmt.universe & ~cube & ~forbidden
    while free:
        tick()
        bit = free & -free
        cube |= bit
        if stats is not None:
            stats.expand_raises += 1
        m = masks[bit_var[bit.bit_length() - 1]]
        still = []
        for o, empty, dist in pending:
            if o & empty & bit:
                if dist == 2:
                    forbidden |= o & empty & ~m
                    continue
                still.append((o, empty & ~m, dist - 1))
            else:
                still.append((o, empty, dist))
        pending = still
        free &= ~forbidden & ~bit
    return cube


def _expand_in_space(sp: Space, fmt: Format, cube: int, forbidden: int,
                     tick_each: bool, stats) -> int:
    """EXPAND on minterm sets: raise a position when the minterms it
    adds miss *forbidden*.

    The variables are visited in order and their free positions lowest
    first, the order of both cube oracles.  Raising value ``j`` of
    variable ``v`` adds the minterms with digit ``v = j`` inside the
    field sets of the other variables: ``prefix`` (the variables before
    ``v``, already final) and ``suffix[v]`` (those after, untouched so
    far).  Their AND with *forbidden*, taken once per variable, blocks
    exactly the values it holds; a raise does not change it, as it
    leaves the other variables alone.  A cube already meeting
    *forbidden* raises nothing.  The on+dc oracle ticks per candidate
    and the off-set one per raise, as theirs do.
    """
    sets = sp.field_sets(cube)
    universe = sp.universe
    suffix = [universe] * len(sets)
    rest = universe
    for v in range(len(sets) - 1, 0, -1):
        rest &= sets[v]
        suffix[v - 1] = rest
    blocked = rest & sets[0] & forbidden
    value_sets = sp.value_sets
    prefix = universe
    for v, m in enumerate(fmt.masks):
        free = m & ~cube
        if free:
            reach = universe if blocked else prefix & suffix[v] & forbidden
            field = cube & m
            while free:
                if tick_each:
                    tick()
                bit = free & -free
                free ^= bit
                if reach & value_sets[bit.bit_length() - 1]:
                    continue
                if not tick_each:
                    tick()
                field |= bit
                if stats is not None:
                    stats.expand_raises += 1
            cube |= field
            sets[v] = sp.field_set(v, field)
        prefix &= sets[v]
    return cube


def expand(f: Cover, on_dc: Cover, off: Optional[Cover] = None) -> Cover:
    """Expand every cube of *f* to a prime, dropping newly covered cubes."""
    fmt = f.fmt
    sp = _space(fmt)
    forbidden = None
    if sp is not None:
        forbidden = (sp.cover_set(off.cubes) if off is not None
                     else sp.universe & ~sp.cover_set(on_dc.cubes))
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
        prime = _expand_cube(f.cubes[i], on_dc, off, forbidden)
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
    sp = _space(fmt)
    if sp is not None:
        kept = _irredundant_in_space(sp, kept, dc)
    else:
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


def _suffix_sets(sets: List[int]) -> List[int]:
    """``out[i]`` is the union of ``sets[i:]``; ``out[len(sets)]`` is 0."""
    out = [0] * (len(sets) + 1)
    for i in range(len(sets) - 1, -1, -1):
        out[i] = out[i + 1] | sets[i]
    return out


def _irredundant_in_space(sp: Space, cubes: List[int],
                          dc: Optional[Cover]) -> List[int]:
    """IRREDUNDANT on minterm sets, in one sweep.

    Cube ``i`` is dropped when its set lies inside the union of the
    cubes kept before it (``prefix``), every cube after it (all still
    present when it is tested) and *dc* — the cover the sequential
    tautology test sees.
    """
    sets = [sp.cube_set(c) for c in cubes]
    suffix = _suffix_sets(sets)
    prefix = sp.cover_set(dc.cubes) if dc is not None else 0
    kept = []
    for i, c in enumerate(cubes):
        tick()
        if sets[i] & ~(prefix | suffix[i + 1]):
            kept.append(c)
            prefix |= sets[i]
    return kept


def _reduce_in_space(sp: Space, cubes: List[int],
                     dc: Optional[Cover]) -> None:
    """REDUCE on minterm sets, in place, in one sweep.

    ``c`` becomes the supercube of the minterms of ``c`` outside the
    rest of the cover: the cubes before it, already reduced
    (``prefix``), the cubes after it, not yet reduced, and *dc*.  That
    is ``c ∩ sccc((F − c + D)|c)`` (DESIGN §6 item 17); 0 when the rest
    covers ``c``.
    """
    sets = [sp.cube_set(c) for c in cubes]
    suffix = _suffix_sets(sets)
    prefix = sp.cover_set(dc.cubes) if dc is not None else 0
    for i, c in enumerate(cubes):
        tick()
        c = sp.supercube(sets[i] & ~(prefix | suffix[i + 1]), c)
        cubes[i] = c
        prefix |= sp.cube_set(c)


def reduce_cover(
    f: Cover, dc: Optional[Cover] = None, largest_first: bool = True
) -> Cover:
    """Replace each cube by its maximal reduction (SCCC rule).

    ``c_new = c  ∩  sccc((F - c + D) cofactored by c)``, where ``sccc``
    is the smallest cube containing the complement
    (:func:`repro.logic.urp.sccc`); a cube the rest covers entirely
    reduces to nothing and is dropped.
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
    sp = _space(fmt)
    if sp is not None:
        _reduce_in_space(sp, cubes, dc)
    else:
        for i in range(len(cubes)):
            tick()
            c = cubes[i]
            rest = Cover(fmt)
            rest.cubes = cubes[:i] + cubes[i + 1:]
            if dc is not None:
                rest.cubes = rest.cubes + list(dc.cubes)
            cubes[i] = c & urp.sccc(rest.cofactor(c))
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
