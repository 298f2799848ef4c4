"""Minterm-set espresso equals the unate-recursive espresso.

On formats whose minterm space is at most
``espresso.MINTERM_SPACE_MAX``, REDUCE, EXPAND and IRREDUNDANT work on
explicit minterm sets (:mod:`repro.logic.minterms`).  The URP path they
replace is the oracle, reached here by lowering the bound to 0:

* (a) the REDUCE identity ``c & sccc((F - c + D)|c) ==
  supercube(c - (F - c + D))``, cube by cube;
* (b) ``reduce_cover`` in both orders, ``irredundant``, ``expand``
  against an off-set and against ``on + dc``, and ``espresso`` return
  the same cubes in the same order and charge the same ``expand_*`` and
  ``espresso_passes`` counters on either path.

Random formats mix binary and multiple-valued variables and end in a
1-part output variable or a wider one; covers carry a don't-care set,
and the off-set is either absent, the whole complement of ``on + dc``
or part of it.
"""

import importlib
import math
import random
from typing import Callable, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.logic import minterms, urp
from repro.logic.cover import Cover
from repro.logic.cube import Format
from repro.logic.verify import verify_minimization

# the package re-exports the espresso() function under the module's name
esp = importlib.import_module("repro.logic.espresso")

def random_format(rng: random.Random) -> Format:
    """Binary and MV inputs, then an output of 1 to 5 parts; at most
    2^12 minterms."""
    parts = [rng.choice((2, 2, 2, 3, 4, 6))
             for _ in range(rng.randrange(1, 6))]
    parts.append(rng.choice((1, 1, 2, 3, 5)))
    while math.prod(parts) > 1 << 12:
        parts.pop(0)
    return Format(parts)


COUNTERS = ("expand_cubes", "expand_attempts", "expand_raises",
            "espresso_passes")


def random_cube(fmt: Format, rng: random.Random) -> int:
    fields = []
    for p in fmt.parts:
        full = (1 << p) - 1
        fields.append(full if rng.random() < 0.4
                      else rng.randrange(1, full + 1))
    return fmt.cube_from_fields(fields)


def random_function(seed: int) -> Tuple[Cover, Cover, Cover]:
    """(on, dc, off); off is empty, the whole complement or part of it."""
    rng = random.Random(seed)
    fmt = random_format(rng)
    assert esp._space(fmt) is not None  # the bound covers every format
    on = Cover(fmt, [random_cube(fmt, rng)
                     for _ in range(rng.randrange(1, 10))])
    dc = Cover(fmt, [random_cube(fmt, rng)
                     for _ in range(rng.randrange(0, 3))])
    off = urp.complement(on + dc)
    kind = seed % 3
    if kind == 0:
        off = Cover(fmt)
    elif kind == 1:
        off.cubes = [c for c in off.cubes if rng.random() < 0.6]
    return on, dc, off


def both_paths(run: Callable[[], Cover]):
    """(cubes, counters) of *run* on minterm sets, then on the URP path."""
    out = []
    for bound in (esp.MINTERM_SPACE_MAX, 0):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(esp, "MINTERM_SPACE_MAX", bound)
            with perf.collect() as stats:
                cubes = run().cubes
        out.append((cubes, [getattr(stats, c) for c in COUNTERS]))
    return out


def assert_same(run: Callable[[], Cover]) -> List[int]:
    (fast, fast_counts), (slow, slow_counts) = both_paths(run)
    assert fast == slow
    assert fast_counts == slow_counts
    return fast


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_supercube_of_uncovered_minterms_is_sccc_reduction(seed):
    on, dc, _off = random_function(seed)
    fmt = on.fmt
    sp = minterms.space(fmt)
    cubes = on.cubes + dc.cubes
    for i, c in enumerate(on.cubes):
        rest = Cover(fmt)
        rest.cubes = cubes[:i] + cubes[i + 1:]
        u = sp.cube_set(c) & ~sp.cover_set(rest.cubes)
        assert sp.supercube(u, c) == c & urp.sccc(rest.cofactor(c))


@pytest.mark.parametrize("largest_first", [True, False],
                         ids=["largest-first", "smallest-first"])
@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_reduce_matches_urp(largest_first, seed):
    on, dc, _off = random_function(seed)
    f = esp.expand(on, on + dc)
    assert_same(lambda: esp.reduce_cover(f, dc, largest_first=largest_first))


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_irredundant_matches_urp(seed):
    on, dc, _off = random_function(seed)
    assert_same(lambda: esp.irredundant(on, dc))
    f = esp.expand(on, on + dc)
    assert_same(lambda: esp.irredundant(f + on, dc))


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_expand_matches_urp(seed):
    on, dc, off = random_function(seed)
    on_dc = on + dc
    assert_same(lambda: esp.expand(on, on_dc))
    if len(off):
        assert_same(lambda: esp.expand(on, on_dc, off))
    # oracles the cubes may already violate: those must raise nothing
    assert_same(lambda: esp.expand(on, dc))
    rng = random.Random(seed)
    meeting = Cover(on.fmt, [random_cube(on.fmt, rng) for _ in range(3)])
    assert_same(lambda: esp.expand(on, on_dc, meeting))


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_espresso_matches_urp(seed):
    on, dc, off = random_function(seed)
    result = assert_same(
        lambda: esp.espresso(on, dc, off=off if len(off) else None))
    got = Cover(on.fmt)
    got.cubes = result
    assert verify_minimization(got, on, dc, off if len(off) else None)



def test_empty_field_has_no_minterms():
    fmt = Format([2, 3, 1])
    sp = minterms.space(fmt)
    assert sp.cube_set(fmt.cube_from_fields([0b11, 0b000, 1])) == 0
    assert sp.cube_set(fmt.universe) == sp.universe
    assert sp.supercube(0, fmt.universe) == 0
