"""Unate-recursive paradigm: tautology, complement and the smallest
cube containing the complement (``sccc``) of MV covers.

All three follow the classic ESPRESSO scheme: fast special cases,
unate reductions, then Shannon expansion on the *most binate* variable,
recursing on the cofactor against each part of that variable.  Because
the parts of a variable partition its value set, the per-part recursion
is exact for multiple-valued variables as well as binary ones.

These reductions avoid Shannon splits (set
:data:`UNATE_REDUCTION` to ``False`` to measure their effect, see
``benchmarks/bench_substrate.py``):

* **tautology** — if some value ``j`` of a variable appears only in
  cubes that are *full* in that variable, the cofactor against
  ``x=j`` is the weakest branch: the cover is a tautology iff that
  single cofactor is.  For a binary unate variable this is the
  textbook rule "cofactor against the missing phase"; a fully unate
  cover resolves with no splits at all (it is a tautology iff it
  contains the universe cube).
* **complement** — values of a variable contained in *no* cube
  complement wholesale (the slab is entirely outside the cover), and
  the rest of the complement is computed with those values raised,
  which makes the variable full (or unate) for the recursion below.
* **sccc** — the same missing values contribute their slab, a cube
  full in every other variable: holes in two variables already give
  the universe, and a hole in one leaves only that variable's other
  values to split on.

Perf counters (:mod:`repro.perf`) meter calls, recursion count, depth
and avoided splits; they cost one attribute load when disabled.
"""

from __future__ import annotations

from typing import List, Optional

from repro import perf
from repro.logic import backend
from repro.logic.backend import VarProfile
from repro.logic.cover import Cover
from repro.logic.cube import Format
from repro.perf.budget import tick

# kill-switch for the unate reductions, used by the substrate benches to
# measure how many URP recursions the reductions save
UNATE_REDUCTION = True


def _profile_split_var(fmt: Format, profile: VarProfile) -> Optional[int]:
    """Most-binate split variable from a precomputed variable profile.

    A variable is binate in the cover when it appears with at least two
    different non-full fields; among binate variables the one non-full
    in the most cubes is chosen (ties prefer more parts, giving flatter
    recursion trees).  When no variable is binate — a unate cover — the
    variable non-full in the most cubes is returned as a fallback so
    the recursion still makes progress.  Returns ``None`` only when
    every cube is full in every variable.
    """
    best_var = None
    best_key = None
    fallback_var = None
    fallback_count = 0
    for v, (count, binate, _union) in enumerate(profile):
        if count == 0:
            continue
        if count > fallback_count or (
            count == fallback_count and fallback_var is not None
            and fmt.parts[v] > fmt.parts[fallback_var]
        ):
            fallback_var = v
            fallback_count = count
        if binate:
            key = (count, fmt.parts[v])
            if best_key is None or key > best_key:
                best_var = v
                best_key = key
    if best_var is not None:
        return best_var
    return fallback_var


def _select_split_var(cover: Cover) -> Optional[int]:
    """Pick the most *binate* variable (ESPRESSO's selection rule)."""
    profile = backend.var_profile(cover.fmt, cover.cubes)
    return _profile_split_var(cover.fmt, profile)


def _profile_reduction_cube(fmt: Format, profile: VarProfile) -> Optional[int]:
    """Cube to cofactor against for the tautology unate reduction.

    For each variable, values appearing only in cubes full in that
    variable give a weakest branch; all such branches combine into one
    cofactor (subset relations between branch cube-sets survive the
    cube-dropping each reduction performs).  Returns ``None`` when no
    variable reduces.
    """
    universe = fmt.universe
    lit = universe
    for v, m in enumerate(fmt.masks):
        union_nonfull = profile[v][2]
        if union_nonfull and union_nonfull != m:
            missing = m & ~union_nonfull
            weakest = missing & -missing  # lowest missing value
            lit &= (universe & ~m) | weakest
    return None if lit == universe else lit


def _unate_reduction_cube(cover: Cover) -> Optional[int]:
    """Tautology unate-reduction cofactor cube (see _profile_reduction_cube)."""
    profile = backend.var_profile(cover.fmt, cover.cubes)
    return _profile_reduction_cube(cover.fmt, profile)


def tautology(cover: Cover) -> bool:
    """True when the cover covers the whole Boolean/MV space."""
    stats = perf.STATS
    if stats is not None:
        stats.tautology_calls += 1
    return _tautology_rec(cover, 1, stats)


def _tautology_rec(cover: Cover, depth: int, stats) -> bool:
    if stats is not None:
        stats.urp_recursions += 1
        if depth > stats.urp_max_depth:
            stats.urp_max_depth = depth
    fmt = cover.fmt
    cubes = cover.cubes
    if not cubes:
        return False
    universe = fmt.universe
    # universal-cube check
    for c in cubes:
        if c == universe:
            return True
    # column check: some value of some variable appearing in no cube
    # cannot be covered
    union = 0
    for c in cubes:
        union |= c
    if union != universe:
        return False
    # one batched per-variable profile serves the unate reduction and
    # the split-variable selection
    profile = backend.var_profile(fmt, cubes)
    if UNATE_REDUCTION:
        lit = _profile_reduction_cube(fmt, profile)
        if lit is not None:
            if stats is not None:
                stats.unate_reductions += 1
            return _tautology_rec(cover.cofactor(lit), depth + 1, stats)
    var = _profile_split_var(fmt, profile)
    if var is None:
        return False  # non-universe cubes only; unreachable after checks
    for part in range(fmt.parts[var]):
        tick()
        lit = fmt.literal(var, (part,))
        if not _tautology_rec(cover.cofactor(lit), depth + 1, stats):
            return False
    return True


def complement(cover: Cover) -> Cover:
    """Complement of a cover (disjoint by construction, then compacted)."""
    stats = perf.STATS
    if stats is not None:
        stats.complement_calls += 1
    result = _complement_rec(cover, 1, stats)
    return result.single_cube_containment()


def _complement_single_cube(fmt, cube: int) -> List[int]:
    """De Morgan complement of one cube: one cube per non-full variable."""
    out = []
    for v, m in enumerate(fmt.masks):
        if cube & m != m:
            out.append((fmt.universe & ~m) | (m & ~cube))
    return out


def _complement_rec(cover: Cover, depth: int = 1, stats=None) -> Cover:
    if stats is not None:
        stats.urp_recursions += 1
        if depth > stats.urp_max_depth:
            stats.urp_max_depth = depth
    fmt = cover.fmt
    cubes = cover.cubes
    out = Cover(fmt)
    if not cubes:
        out.cubes.append(fmt.universe)
        return out
    universe = fmt.universe
    for c in cubes:
        if c == universe:
            return out  # empty complement
    if len(cubes) == 1:
        out.cubes = _complement_single_cube(fmt, cubes[0])
        return out
    # one batched profile serves the missing-value factoring and the
    # split-variable selection below
    profile = backend.var_profile(fmt, cubes)
    if UNATE_REDUCTION:
        # missing-value factoring: values of a variable inside no cube
        # complement wholesale; raising them in every cube removes the
        # variable's "holes" without changing the complement inside the
        # remaining slab, so the recursion sees fuller variables.  The
        # full union over all cubes equals the mask as soon as one cube
        # is full in the variable, so it reduces to the profile's
        # non-full union exactly when every cube is non-full there.
        n = len(cubes)
        raised = 0
        restrict = universe
        for v, m in enumerate(fmt.masks):
            count, _binate, union = profile[v]
            if count == n and union != m:
                missing = m & ~union
                out.cubes.append((universe & ~m) | missing)
                raised |= missing
                restrict &= (universe & ~m) | union
        if raised:
            if stats is not None:
                stats.unate_reductions += 1
            lifted = Cover(fmt)
            lifted.cubes = [c | raised for c in cubes]
            sub = _complement_rec(lifted, depth + 1, stats)
            for c in sub.cubes:
                r = c & restrict
                if not fmt.is_empty(r):
                    out.cubes.append(r)
            return out
    var = _profile_split_var(fmt, profile)
    if var is None:
        return out  # all cubes universe; handled above
    for part in range(fmt.parts[var]):
        tick()
        lit = fmt.literal(var, (part,))
        sub = _complement_rec(cover.cofactor(lit), depth + 1, stats)
        for c in sub.cubes:
            r = c & lit
            if not fmt.is_empty(r):
                out.cubes.append(r)
    return out


def sccc(cover: Cover) -> int:
    """Smallest cube containing the complement of *cover*; 0 for a
    tautology.

    Equals the OR of the cubes of :func:`complement` (whose cubes are
    never empty, so their supercube is the supercube of the
    complement's minterms) without building the complement: a Shannon
    split ORs each branch's supercube, restricted to its part, into one
    accumulator, and stops once the accumulator is the universe.
    """
    return _sccc_rec(cover.fmt, cover.cubes, 1, perf.STATS)


def _sccc_rec(fmt: Format, cubes: List[int], depth: int, stats) -> int:
    if stats is not None:
        stats.urp_recursions += 1
        if depth > stats.urp_max_depth:
            stats.urp_max_depth = depth
    universe = fmt.universe
    if not cubes:
        return universe
    for c in cubes:
        if c == universe:
            return 0
    result = 0
    if len(cubes) == 1:
        de_morgan = _complement_single_cube(fmt, cubes[0])
        for c in de_morgan:
            result |= c
        return result
    var = None
    if UNATE_REDUCTION:
        # missing values: a value of a variable inside no cube puts its
        # whole slab in the complement, a cube full in every other
        # variable.  Holes in two variables OR to the universe; a hole
        # in one variable leaves only that variable's other values to
        # decide, by splitting on it below.
        union = 0
        for c in cubes:
            union |= c
        holes = universe & ~union
        if holes:
            if stats is not None:
                stats.unate_reductions += 1
            var = fmt.bit_var[holes.bit_length() - 1]
            if holes & ~fmt.masks[var]:
                return universe
            result = (universe & ~fmt.masks[var]) | holes
    if var is None:
        var = _profile_split_var(fmt, backend.var_profile(fmt, cubes))
        if var is None:
            return 0  # all cubes universe; handled above
    rest = universe & ~fmt.masks[var]
    offset = fmt.offsets[var]
    for part in range(fmt.parts[var]):
        bit = 1 << (offset + part)
        if result & bit:
            continue  # a hole value: its slab is already in
        tick()
        lit = rest | bit
        sub = _sccc_rec(fmt, backend.cofactor(fmt, cubes, lit), depth + 1,
                        stats)
        if sub:
            result |= sub & lit
            if result == universe:
                break
    return result
