"""Batched whole-cover kernels: the inner loops of the logic layer.

Every NOVA algorithm bottoms out in per-cube integer operations —
containment scans, cofactors, consensus — over
:class:`~repro.logic.cover.Cover` objects.  This module concentrates
those inner loops into *whole-cover kernels* that run once per cover
instead of once per cube: hoisted, allocation-free loops over plain
lists of cube ints, called directly (``backend.cofactor(fmt, cubes,
c)``) by :mod:`~repro.logic.cover`, :mod:`~repro.logic.espresso`,
:mod:`~repro.logic.exact`, :mod:`~repro.logic.urp` and
:mod:`repro.encoding.iexact`.

Kernels never reorder results: filters preserve input order, and
:func:`single_cube_containment` sorts by the canonical ``(minterm count
desc, cube value asc)`` key.  ``tests/test_backend.py`` checks every
kernel against a per-cube loop over the :class:`~repro.logic.cube.Format`
primitives, and ``benchmarks/check_signatures.py`` pins whole encode
results to committed golden signatures.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro import perf


def _count_kernel_call() -> None:
    stats = perf.STATS
    if stats is not None:
        stats.kernel_batch_calls += 1


#: One entry per variable: (non-full cube count, binate flag, OR of the
#: non-full fields, masked in place).  ``urp`` derives its leaf checks,
#: the unate-reduction cofactor and the Shannon split variable from one
#: profile instead of three per-cube scans.
VarProfile = List[Tuple[int, bool, int]]


def cofactor(fmt, cubes, against: int) -> List[int]:
    """Cofactor every cube against *against*; drops non-intersecting
    cubes, preserves order."""
    _count_kernel_call()
    masks = fmt.masks
    raise_mask = fmt.universe & ~against
    out: List[int] = []
    append = out.append
    for c in cubes:
        x = c & against
        for m in masks:
            if not x & m:
                break
        else:
            append(c | raise_mask)
    return out


def intersect_cube(fmt, cubes, cube: int) -> List[int]:
    """Intersect every cube with *cube*; drops empty results,
    preserves order."""
    _count_kernel_call()
    masks = fmt.masks
    out: List[int] = []
    append = out.append
    for c in cubes:
        r = c & cube
        for m in masks:
            if not r & m:
                break
        else:
            append(r)
    return out


def contain_any(fmt, cubes, cube: int) -> bool:
    """True when some single cube of the cover contains *cube*."""
    _count_kernel_call()
    for k in cubes:
        if cube & ~k == 0:
            return True
    return False


def any_intersects(fmt, cubes, cube: int) -> bool:
    """True when *cube* shares a minterm with some cube of the cover."""
    _count_kernel_call()
    masks = fmt.masks
    for c in cubes:
        x = c & cube
        for m in masks:
            if not x & m:
                break
        else:
            return True
    return False


def contained_mask(fmt, cubes, cube: int) -> List[bool]:
    """Per-cube flags: cover cube i is contained in *cube*."""
    _count_kernel_call()
    return [c & ~cube == 0 for c in cubes]


def intersect_counts(fmt, cubes, probes: Sequence[int]) -> List[int]:
    """For each probe cube, how many cover cubes it intersects."""
    _count_kernel_call()
    masks = fmt.masks
    counts: List[int] = []
    append = counts.append
    for p in probes:
        n = 0
        for c in cubes:
            x = c & p
            for m in masks:
                if not x & m:
                    break
            else:
                n += 1
        append(n)
    return counts


def minterm_counts(fmt, cubes) -> List[int]:
    """Minterm count of every cube (product of field popcounts)."""
    _count_kernel_call()
    masks = fmt.masks
    out: List[int] = []
    append = out.append
    for c in cubes:
        n = 1
        for m in masks:
            n *= (c & m).bit_count()
        append(n)
    return out


def single_cube_containment(fmt, cubes) -> List[int]:
    """Drop cubes contained in another single cube; canonical order.

    Candidates are deduplicated and visited in decreasing
    minterm-count order with the cube value as a deterministic
    tie-break, so the result never depends on the insertion history
    of the input.
    """
    _count_kernel_call()
    masks = fmt.masks

    def mc(c: int) -> int:
        n = 1
        for m in masks:
            n *= (c & m).bit_count()
        return n

    order = sorted(set(cubes), key=lambda c: (-mc(c), c))
    kept: List[int] = []
    kept_pc: List[int] = []
    for c in order:
        pc = c.bit_count()
        contained = False
        for k, kpc in zip(kept, kept_pc):
            if kpc > pc and c & ~k == 0:
                contained = True
                break
        if not contained:
            kept.append(c)
            kept_pc.append(pc)
    return kept


def var_profile(fmt, cubes) -> VarProfile:
    """(non-full count, binate flag, non-full field union) per variable."""
    _count_kernel_call()
    out: List[Tuple[int, bool, int]] = []
    append = out.append
    for m in fmt.masks:
        count = 0
        first = -1
        binate = False
        union = 0
        for c in cubes:
            f = c & m
            if f != m:
                count += 1
                union |= f
                if first < 0:
                    first = f
                elif f != first:
                    binate = True
        append((count, binate, union))
    return out


def consensus_scan(fmt, cubes, cube: int) -> List[int]:
    """MV consensus of *cube* with every cover cube, flattened.

    Per pair: nothing at distance > 1; the classic single consensus
    cube at distance 1 (dropped when empty); at distance 0 one cube
    per variable with that variable's parts unioned (the
    multiple-valued completeness requirement of iterated
    consensus — see :mod:`repro.logic.exact`).
    """
    _count_kernel_call()
    masks = fmt.masks
    out: List[int] = []
    append = out.append
    for b in cubes:
        inter = cube & b
        empty_m = -1
        n_empty = 0
        for m in masks:
            if not inter & m:
                n_empty += 1
                if n_empty > 1:
                    break
                empty_m = m
        if n_empty > 1:
            continue
        union = cube | b
        if n_empty == 1:
            c = (inter & ~empty_m) | (union & empty_m)
            for m in masks:
                if not c & m:
                    break
            else:
                append(c)
            continue
        for m in masks:
            append((inter & ~m) | (union & m))
    return out


# ----------------------------------------------------------------------
# encoding-cube (Face) kernels
# ----------------------------------------------------------------------
def face_members_ok(states: Sequence[int], codes: Sequence[int],
                    ic: int, care: int, val: int) -> bool:
    """§3.1 criterion over placed codes: state code lies in the face
    (care, val) exactly when the state is a member of *ic*."""
    _count_kernel_call()
    for s, code in zip(states, codes):
        if (((code ^ val) & care) == 0) != bool((ic >> s) & 1):
            return False
    return True


def face_vertices(k: int, care: int, val: int) -> List[int]:
    """Sorted codes of the face's vertices."""
    _count_kernel_call()
    free = [i for i in range(k) if not (care >> i) & 1]
    out = []
    for bits in range(1 << len(free)):
        code = val
        for j, pos in enumerate(free):
            if (bits >> j) & 1:
                code |= 1 << pos
        out.append(code)
    out.sort()
    return out
