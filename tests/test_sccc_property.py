"""``urp.sccc``: the smallest cube containing a complement, without
building the complement.

The oracle is the OR of the cubes of :func:`repro.logic.urp.complement`
(0 when the complement is empty), which REDUCE used to compute per
cube.  Both must agree under either ``UNATE_REDUCTION`` setting, on the
empty cover, covers containing the universe, single cubes and random
mixed binary / multiple-valued covers.
"""

import random
from contextlib import contextmanager
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import urp
from repro.logic.cover import Cover
from repro.logic.cube import Format

FORMATS = [
    Format([2, 2, 2]),
    Format([3, 2, 1]),
    Format([2, 4, 2, 1]),
    Format([3, 3, 2]),
    Format([2, 2, 2, 2, 3]),
    Format([1, 2, 5]),
]


both_reductions = pytest.mark.parametrize(
    "unate_reduction", [True, False], ids=["reduction", "plain"])


@contextmanager
def reduction(flag: bool) -> Iterator[None]:
    old = urp.UNATE_REDUCTION
    urp.UNATE_REDUCTION = flag
    try:
        yield
    finally:
        urp.UNATE_REDUCTION = old


def complement_supercube(cover: Cover) -> int:
    out = 0
    for c in urp.complement(cover).cubes:
        out |= c
    return out


def random_cube(fmt: Format, rng: random.Random) -> int:
    fields = []
    for p in fmt.parts:
        full = (1 << p) - 1
        fields.append(full if rng.random() < 0.3
                      else rng.randrange(1, full + 1))
    return fmt.cube_from_fields(fields)


def check(cover: Cover) -> None:
    assert urp.sccc(cover) == complement_supercube(cover)


@both_reductions
@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sccc_equals_or_of_complement(unate_reduction, seed):
    rng = random.Random(seed)
    fmt = FORMATS[seed % len(FORMATS)]
    cover = Cover(fmt, [random_cube(fmt, rng)
                        for _ in range(rng.randrange(0, 8))])
    with reduction(unate_reduction):
        check(cover)


@both_reductions
@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_single_cube_and_universe_covers(unate_reduction, seed):
    rng = random.Random(seed)
    fmt = FORMATS[seed % len(FORMATS)]
    cube = random_cube(fmt, rng)
    with_universe = Cover(fmt, [cube, fmt.universe, random_cube(fmt, rng)])
    with reduction(unate_reduction):
        check(Cover(fmt, [cube]))
        assert urp.sccc(with_universe) == 0
        check(with_universe)


@both_reductions
def test_empty_cover_is_universe(unate_reduction):
    fmt = Format([2, 3, 1])
    with reduction(unate_reduction):
        assert urp.sccc(Cover(fmt)) == fmt.universe


@both_reductions
def test_tautology_is_zero(unate_reduction):
    fmt = Format([2, 3])
    cover = Cover(fmt, [fmt.literal(0, (0,)), fmt.literal(0, (1,))])
    with reduction(unate_reduction):
        assert urp.sccc(cover) == 0


def test_hole_in_one_variable():
    # value 2 of variable 1 is in no cube: its slab is in the complement
    fmt = Format([2, 3])
    cover = Cover(fmt, [fmt.cube_from_fields([0b01, 0b011]),
                        fmt.cube_from_fields([0b10, 0b001])])
    assert urp.sccc(cover) == complement_supercube(cover)
    assert urp.sccc(cover) == fmt.cube_from_fields([0b11, 0b110])
