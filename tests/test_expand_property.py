"""EXPAND against an explicit off-set: the incremental blocking state
equals the per-candidate scan it replaced.

The reference below is the former algorithm, kept only here as an
oracle: every free position is tried in increasing order of how many
off-cubes its single raise would meet, and a raise is kept when the
grown cube meets no off-cube, each test a fresh field-by-field scan of
the whole off-set.  ``_expand_cube`` must return the same prime and
charge the same ``expand_*`` counters, on formats with 3-part input
variables and 1-part outputs and on off-sets holding distance-0,
distance-1 and farther cubes.
"""

import random
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.logic.cover import Cover
from repro.logic.cube import Format
from repro.logic.espresso import _expand_cube

FORMATS = [
    Format([3, 2, 3, 1]),
    Format([2, 3, 2, 2, 1]),
    Format([2, 2, 2, 3]),
    Format([3, 3, 4, 2, 2]),
    Format([2, 2, 2, 2, 2, 1]),
    Format([5, 2, 1, 3]),
]


def meets(fmt: Format, a: int, b: int) -> bool:
    """Field-by-field intersection test, independent of the kernels."""
    x = a & b
    return all(x & m for m in fmt.masks)


def reference_expand(fmt: Format, cube: int,
                     off_cubes: List[int]) -> Tuple[int, int, int]:
    """(prime, attempts, raises) of the per-candidate EXPAND."""
    candidates = [b for b in range(fmt.width) if not (cube >> b) & 1]
    blocking = {b: sum(meets(fmt, cube | 1 << b, o) for o in off_cubes)
                for b in candidates}
    candidates.sort(key=blocking.__getitem__)
    raises = 0
    for b in candidates:
        grown = cube | 1 << b
        if not any(meets(fmt, grown, o) for o in off_cubes):
            cube = grown
            raises += 1
    return cube, len(candidates), raises


def random_field(rng: random.Random, parts: int, within: int) -> int:
    """A non-empty random subset of *within* (all parts when empty)."""
    if not within:
        within = (1 << parts) - 1
    while True:
        f = rng.getrandbits(parts) & within
        if f:
            return f


def random_case(seed: int):
    rng = random.Random(seed)
    fmt = FORMATS[seed % len(FORMATS)]
    fields = [random_field(rng, p, (1 << p) - 1) for p in fmt.parts]
    cube = fmt.cube_from_fields(fields)
    off: List[int] = []
    for _ in range(rng.randrange(0, 12)):
        kind = rng.random()
        if kind < 0.1:
            # distance 0: shares a part with the cube in every variable
            o = fmt.cube_from_fields(
                [random_field(rng, p, f) | random_field(rng, p, (1 << p) - 1)
                 for p, f in zip(fmt.parts, fields)])
        elif kind < 0.7:
            # near the cube: disjoint from it in one or two variables
            far = rng.sample(range(fmt.num_vars), rng.choice((1, 1, 2)))
            o = fmt.cube_from_fields(
                [random_field(rng, p, ((1 << p) - 1) & ~f) if v in far
                 else random_field(rng, p, (1 << p) - 1)
                 for v, (p, f) in enumerate(zip(fmt.parts, fields))])
        else:
            o = fmt.cube_from_fields(
                [random_field(rng, p, (1 << p) - 1) for p in fmt.parts])
        off.append(o)
    return fmt, cube, off


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_incremental_expand_matches_per_candidate_scan(seed):
    fmt, cube, off_cubes = random_case(seed)
    prime, attempts, raises = reference_expand(fmt, cube, off_cubes)
    off = Cover(fmt)
    off.cubes = off_cubes
    with perf.collect() as stats:
        got = _expand_cube(cube, Cover(fmt), off)
    assert got == prime
    assert stats.expand_cubes == 1
    assert stats.expand_attempts == attempts
    assert stats.expand_raises == raises


def test_distance_zero_off_cube_forbids_every_raise():
    fmt = Format([3, 2, 1])
    cube = fmt.cube_from_fields([0b001, 0b01, 1])
    off = Cover(fmt, [fmt.cube_from_fields([0b011, 0b11, 1])])
    assert _expand_cube(cube, Cover(fmt), off) == cube
    assert reference_expand(fmt, cube, off.cubes)[0] == cube


def test_raise_that_brings_an_off_cube_to_distance_one():
    # the off-cube is two variables away; raising var 0 to 0b011 makes
    # it distance 1, which must then forbid var 1's missing phase
    fmt = Format([3, 2, 1])
    cube = fmt.cube_from_fields([0b001, 0b01, 1])
    off = Cover(fmt, [fmt.cube_from_fields([0b010, 0b10, 1])])
    got = _expand_cube(cube, Cover(fmt), off)
    assert got == reference_expand(fmt, cube, off.cubes)[0]
    assert got == fmt.cube_from_fields([0b111, 0b01, 1])
