"""ESPRESSO-style heuristic two-level minimization (EXPAND / REDUCE / IRREDUNDANT).

Two validity oracles are supported for EXPAND:

* an explicit off-set (as in ``minimize(on, dc, off)`` used by NOVA's
  symbolic minimization loop) — a raise is legal when the grown cube
  meets no off-cube;
* no off-set — a raise is legal when the grown cube is still an
  implicant of ``on + dc``.  This avoids computing a global complement,
  which can blow up on wide covers.

:func:`espresso` has two exact implementations: the same cubes in the
same order, the same per-cube and per-raise ticks and the same
``espresso_passes``, ``expand_*``, ``scc_*`` and ``lastgasp_*``
counters (DESIGN §6 item 17):

* on covers :func:`_space` admits, the whole loop runs on ``(cube,
  minterm set, set size)`` terms (:mod:`repro.logic.minterms`) carried
  from phase to phase.  Both oracles become one forbidden set (the
  off-set, or the complement of ``on + dc``), built once per call with
  the don't-care set; a raise is legal when the minterms it adds miss
  it, and EXPAND yields each prime's set with the prime.  REDUCE keeps
  the supercube of the minterms of a cube outside the rest of the
  cover, and IRREDUNDANT drops a cube whose minterms the rest covers,
  both in one sweep with prefix and suffix unions; orders use the
  carried sizes;
* on other covers, cubes and the unate-recursive paradigm.  Against an
  off-set, one scan per cube yields the off-cubes one variable away;
  their fields in that variable form the set of forbidden raises,
  updated incrementally as the cube grows
  (see :func:`_expand_against_off`); against ``on + dc`` each raise is
  a tautology call.  REDUCE takes the smallest cube containing the
  part of a cube the rest does not cover from
  :func:`repro.logic.urp.sccc`, and IRREDUNDANT asks a tautology call
  per cube.

The public :func:`reduce_cover`, :func:`expand` and :func:`irredundant`
dispatch their cover the same way.

The iteration accepts a :class:`repro.perf.Budget`: when the budget
expires mid-loop the best cover found so far is returned (the result is
always a valid cover of the function — only its quality degrades).
After the first non-improving pass a LASTGASP retry runs REDUCE with
the opposite cube ordering before giving up, which recovers the ties
and near-misses the plain loop used to discard.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple, Union

from repro import perf
from repro.errors import BudgetExhausted
from repro.logic import backend, minterms, urp
from repro.logic.cover import Cover
from repro.logic.cube import Format
from repro.logic.minterms import Space
from repro.perf.budget import Budget, ambient, tick

#: Formats with at most this many minterms run espresso on minterm
#: sets; so do formats whose inputs are all binary (encoded PLAs) up to
#: BINARY_SPACE_MAX minterms while minterms × cubes, about what a set
#: pass costs in big-int words, stays within BINARY_WORK_MAX.  Past
#: these bounds some calls get slower on sets (DESIGN §6 item 17).
MINTERM_SPACE_MAX = 1 << 13
BINARY_SPACE_MAX = 1 << 18
BINARY_WORK_MAX = 7 << 20

#: One cube of a cover on the minterm path: (cube, its minterm set, the
#: size of that set).
Term = Tuple[int, int, int]


def _space(f: Cover) -> Optional[Space]:
    """The minterm space of *f*'s format when espresso runs *f* on sets,
    else None."""
    fmt = f.fmt
    n = minterms.size(fmt)
    if n > MINTERM_SPACE_MAX and (
            n > BINARY_SPACE_MAX or n * len(f.cubes) > BINARY_WORK_MAX
            or max(fmt.parts[:-1], default=2) > 2):
        return None
    return minterms.space(fmt)


def _is_implicant(cube: int, on_dc: Cover) -> bool:
    return on_dc.contains_cube(cube)


def _count_expand(stats, fmt: Format, cube: int) -> None:
    if stats is not None:
        stats.expand_cubes += 1
        stats.expand_attempts += (fmt.universe & ~cube).bit_count()


def _expand_cube(cube: int, on_dc: Cover, off: Optional[Cover]) -> int:
    """Grow *cube* to a prime implicant by raising one position at a time.

    Raising is monotone: once a raise fails it fails for every superset,
    so a single pass over the candidate positions, lowest bit first,
    yields a prime.  With no off-set each raise is an implicant test
    against ``on + dc``; with one, :func:`_expand_against_off` decides
    every raise from state kept across the raises.
    """
    fmt = on_dc.fmt if off is None else off.fmt
    stats = perf.STATS
    _count_expand(stats, fmt, cube)
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


def _expand_in_space(sp: Space, fmt: Format, term: Term, forbidden: int,
                     tick_each: bool, stats) -> Term:
    """EXPAND on minterm sets: raise a position when the minterms it
    adds miss *forbidden*; returns the prime as a term.

    The variables are visited in order and their free positions lowest
    first, the order of both cube oracles.  Raising value ``j`` of
    variable ``v`` adds the minterms with digit ``v = j`` inside the
    field sets of the other variables: ``prefix`` (the variables before
    ``v``, already final) and ``suffix[v]`` (those after, untouched so
    far, ANDed with *forbidden* once for the whole cube).  Their AND,
    taken once per variable, blocks exactly the values it holds; a
    raise does not change it, as it leaves the other variables alone.
    A cube already meeting *forbidden* raises nothing.  The on+dc
    oracle ticks per candidate and the off-set one per raise, as theirs
    do.  After the last variable ``prefix`` is the set of the prime.
    """
    cube, blocked, _ = term
    blocked &= forbidden
    sets = sp.field_sets(cube)
    universe = sp.universe
    suffix = [forbidden] * len(sets)
    rest = forbidden
    for v in range(len(sets) - 1, 0, -1):
        if sets[v] is not universe:  # a full field's set is everything
            rest &= sets[v]
        suffix[v - 1] = rest
    value_sets = sp.value_sets
    prefix = universe
    for v, m in enumerate(fmt.masks):
        free = m & ~cube
        if free:
            reach = universe if blocked else prefix & suffix[v]
            field = 0
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
            if field:
                cube |= field
                sets[v] = sp.field_set(v, cube & m)
        if sets[v] is not universe:
            prefix &= sets[v]
    return cube, prefix, prefix.bit_count()


def _terms(sp: Space, cubes: List[int]) -> List[Term]:
    out = []
    # nova-lint: disable=NV002 -- one memoized cube set per cube of a
    # cover; the phases the terms feed tick per cube, like the URP path
    for c in cubes:
        s = sp.cube_set(c)
        out.append((c, s, s.bit_count()))
    return out


def _size(term: Term) -> int:
    return term[2]


def _scc_terms(terms: List[Term]) -> List[Term]:
    """:meth:`Cover.single_cube_containment` on terms: the same cubes in
    the same order, with the same ``scc_*`` counts.

    Set sizes are the minterm counts the cube kernel orders by.  A cube
    contains another exactly when its bits do, and two distinct cubes
    never have equal sets, so the bit test of the kernel stays.
    """
    stats = perf.STATS
    if stats is not None:
        stats.scc_calls += 1
    if len(terms) <= 1:
        return list(terms)
    unique = {t[0]: t for t in terms}
    kept: List[Term] = []
    for t in sorted(unique.values(), key=lambda t: (-t[2], t[0])):
        c = t[0]
        for k in kept:
            if c & ~k[0] == 0:
                break
        else:
            kept.append(t)
    if stats is not None:
        stats.scc_dropped += len(terms) - len(kept)
    return kept


def _expand_terms(sp: Space, fmt: Format, terms: List[Term], forbidden: int,
                  tick_each: bool) -> List[Term]:
    """EXPAND on terms: :func:`expand`'s cube order, covering and SCC."""
    stats = perf.STATS
    order = sorted(range(len(terms)), key=lambda i: terms[i][2])
    covered = [False] * len(terms)
    primes: List[Term] = []
    for pos, i in enumerate(order):
        tick()
        if covered[i]:
            continue
        _count_expand(stats, fmt, terms[i][0])
        prime = _expand_in_space(sp, fmt, terms[i], forbidden, tick_each,
                                 stats)
        primes.append(prime)
        p = prime[0]
        for j in order[pos + 1:]:
            if terms[j][0] & ~p == 0:
                covered[j] = True
    return _scc_terms(primes)


def _suffix_sets(terms: List[Term]) -> List[int]:
    """``out[i]`` is the union of the sets of ``terms[i:]``;
    ``out[len(terms)]`` is 0."""
    out = [0] * (len(terms) + 1)
    for i in range(len(terms) - 1, -1, -1):
        out[i] = out[i + 1] | terms[i][1]
    return out


def _irredundant_terms(terms: List[Term], dc: int) -> List[Term]:
    """IRREDUNDANT on terms, smallest first, in one sweep.

    Cube ``i`` is dropped when its set lies inside the union of the
    cubes kept before it (``prefix``), every cube after it (all still
    present when it is tested) and the don't-care set *dc* — the cover
    the sequential tautology test sees.
    """
    order = sorted(terms, key=_size)
    suffix = _suffix_sets(order)
    prefix = dc
    kept = []
    for i, t in enumerate(order):
        tick()
        if t[1] & ~(prefix | suffix[i + 1]):
            kept.append(t)
            prefix |= t[1]
    return kept


def _reduce_terms(sp: Space, terms: List[Term], dc: int,
                  largest_first: bool) -> List[Term]:
    """REDUCE on terms in :func:`reduce_cover`'s order, in one sweep.

    ``c`` becomes the supercube of the minterms of ``c`` outside the
    rest of the cover: the cubes before it, already reduced
    (``prefix``), the cubes after it, not yet reduced, and the
    don't-care set *dc*.  That is ``c ∩ sccc((F − c + D)|c)`` (DESIGN
    §6 item 17); a cube the rest covers reduces to nothing and is
    dropped.
    """
    order = sorted(terms, key=_size, reverse=largest_first)
    suffix = _suffix_sets(order)
    prefix = dc
    out = []
    for i, t in enumerate(order):
        tick()
        c, s, _ = t
        u = s & ~(prefix | suffix[i + 1])
        if u != s:  # else the rest misses c and c stays
            r = sp.supercube(u, c)
            if not r:
                continue
            s = sp.subcube_set(s, c, r)
            t = (r, s, s.bit_count())
        out.append(t)
        prefix |= s
    return out


def _cover(fmt: Format, cubes: List[int]) -> Cover:
    out = Cover(fmt)
    out.cubes = cubes
    return out


def _cubes(terms: List[Term]) -> List[int]:
    return [t[0] for t in terms]


def expand(f: Cover, on_dc: Cover, off: Optional[Cover] = None) -> Cover:
    """Expand every cube of *f* to a prime, dropping newly covered cubes."""
    sp = _space(f)
    if sp is None:
        return _expand_urp(f, on_dc, off)
    forbidden = (sp.cover_set(off.cubes) if off is not None
                 else sp.universe & ~sp.cover_set(on_dc.cubes))
    return _cover(f.fmt, _cubes(_expand_terms(
        sp, f.fmt, _terms(sp, f.cubes), forbidden, off is None)))


def _expand_urp(f: Cover, on_dc: Cover, off: Optional[Cover]) -> Cover:
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
    sp = _space(f)
    if sp is None:
        return _irredundant_urp(f, dc)
    dc_set = sp.cover_set(dc.cubes) if dc is not None else 0
    return _cover(f.fmt, _cubes(_irredundant_terms(
        _terms(sp, f.cubes), dc_set)))


def _irredundant_urp(f: Cover, dc: Optional[Cover]) -> Cover:
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
    return _cover(fmt, kept)


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
    sp = _space(f)
    if sp is None:
        return _reduce_urp(f, dc, largest_first)
    dc_set = sp.cover_set(dc.cubes) if dc is not None else 0
    return _cover(f.fmt, _cubes(_reduce_terms(
        sp, _terms(sp, f.cubes), dc_set, largest_first)))


def _reduce_urp(f: Cover, dc: Optional[Cover], largest_first: bool) -> Cover:
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
        cubes[i] = c & urp.sccc(rest.cofactor(c))
    return _cover(fmt, [c for c in cubes if c and not fmt.is_empty(c)])


#: A cover as one espresso() call carries it: a Cover on the URP path,
#: a list of terms on the minterm path.
Carried = Union[Cover, List[Term]]
#: (REDUCE with the order flag, EXPAND, IRREDUNDANT) of one call.
Phases = Tuple[Callable[[Carried, bool], Carried],
               Callable[[Carried], Carried], Callable[[Carried], Carried]]


def _one_pass(best: Carried, phases: Phases,
              largest_first: bool = True) -> Carried:
    """One REDUCE / EXPAND / IRREDUNDANT round, individually timed."""
    reduce_f, expand_f, irredundant_f = phases
    with perf.timer("reduce"):
        f = reduce_f(best, largest_first)
    with perf.timer("expand"):
        f = expand_f(f)
    with perf.timer("irredundant"):
        f = irredundant_f(f)
    return f


def _cube_phases(on: Cover, dc: Cover,
                 off: Optional[Cover]) -> Tuple[Carried, Phases]:
    """The starting cover and the phases on cubes and URP."""
    on_dc = on + dc
    return on.single_cube_containment(), (
        lambda f, largest_first: _reduce_urp(f, dc, largest_first),
        lambda f: _expand_urp(f, on_dc, off),
        lambda f: _irredundant_urp(f, dc))


def _set_phases(sp: Space, on: Cover, dc: Cover,
                off: Optional[Cover]) -> Tuple[Carried, Phases]:
    """The starting cover and the phases on terms, with the forbidden and
    don't-care sets built once for the whole call."""
    fmt = on.fmt
    start = _terms(sp, on.cubes)
    dc_set = sp.cover_set(dc.cubes)
    if off is not None:
        forbidden = sp.cover_set(off.cubes)
    else:
        on_dc = dc_set
        for t in start:
            on_dc |= t[1]
        forbidden = sp.universe & ~on_dc
    tick_each = off is None
    return _scc_terms(start), (
        lambda f, largest_first: _reduce_terms(sp, f, dc_set, largest_first),
        lambda f: _expand_terms(sp, fmt, f, forbidden, tick_each),
        lambda f: _irredundant_terms(f, dc_set))


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
    sp = _space(on)
    if sp is None:
        f, phases = _cube_phases(on, dc, off)
    else:
        f, phases = _set_phases(sp, on, dc, off)
    _, expand_f, irredundant_f = phases
    with perf.timer("expand"):
        f = expand_f(f)
    with perf.timer("irredundant"):
        f = irredundant_f(f)
    best = f
    if effort != "low":
        best = _improve(f, phases, fmt, max_iter, budget)
    if stats is not None:
        stats.add_time("espresso", time.perf_counter() - t0)
    return best if isinstance(best, Cover) else _cover(fmt, _cubes(best))


def _cost(f: Carried, fmt: Format) -> tuple:
    return (f if isinstance(f, Cover) else _cover(fmt, _cubes(f))).cost()


def _improve(f: Carried, phases: Phases, fmt: Format, max_iter: int,
             budget: Optional[Budget]) -> Carried:
    """The REDUCE/EXPAND/IRREDUNDANT loop with LASTGASP from *f*."""
    stats = perf.STATS
    best = f
    best_cost = _cost(f, fmt)
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
                f = _one_pass(best, phases)
                if stats is not None:
                    stats.espresso_passes += 1
                cost = _cost(f, fmt)
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
                g = _one_pass(best, phases, largest_first=False)
                if stats is not None:
                    stats.espresso_passes += 1
                g_cost = _cost(g, fmt)
                if g_cost < best_cost:
                    if stats is not None:
                        stats.lastgasp_wins += 1
                    best, best_cost = g, g_cost
                    continue
                break
    except BudgetExhausted:
        pass  # deadline mid-pass: degrade to the incumbent cover
    return best


def minimize(on: Cover, dc: Cover, off: Cover, effort: str = "full",
             budget: Optional[Budget] = None) -> Cover:
    """NOVA-style ``minimize(on, dc, off)`` with an explicit off-set."""
    return espresso(on, dc=dc, off=off, effort=effort, budget=budget)
