"""Minterm-set espresso equals the unate-recursive espresso.

On formats ``espresso._space`` admits (at most
``espresso.MINTERM_SPACE_MAX`` minterms, or all-binary inputs within
``BINARY_SPACE_MAX`` and ``BINARY_WORK_MAX``), the whole espresso loop
runs on ``(cube, minterm set, size)`` terms (:mod:`repro.logic.minterms`).
The URP path it replaces is the oracle, reached here by lowering the
bounds to 0:

* (a) the REDUCE identity ``c & sccc((F - c + D)|c) ==
  supercube(c - (F - c + D))``, cube by cube;
* (b) ``reduce_cover`` in both orders, ``irredundant``, ``expand``
  against an off-set and against ``on + dc``, and ``espresso`` return
  the same cubes in the same order and charge the same ``expand_*``,
  ``scc_*``, ``lastgasp_*`` and ``espresso_passes`` counters on either
  path;
* (c) so does ``espresso`` with ``effort="low"``, on covers holding
  duplicate and contained cubes, under a budget whose deadline falls
  mid-pass (the same incumbent comes back), and on all-binary formats
  between ``MINTERM_SPACE_MAX`` and ``BINARY_SPACE_MAX`` minterms.

Random formats mix binary and multiple-valued variables and end in a
1-part output variable or a wider one; covers carry a don't-care set,
and the off-set is either absent, the whole complement of ``on + dc``
or part of it.
"""

import importlib
import itertools
import math
import random
from types import SimpleNamespace
from typing import Callable, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.logic import minterms, urp
from repro.logic.cover import Cover
from repro.logic.cube import Format
from repro.logic.verify import verify_minimization
from repro.perf.budget import Budget

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
            "espresso_passes", "scc_calls", "scc_dropped",
            "lastgasp_attempts", "lastgasp_wins")


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
    assert esp._space(Cover(fmt)) is not None  # the bound covers them all
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
    for urp_path in (False, True):
        with pytest.MonkeyPatch.context() as m:
            if urp_path:
                m.setattr(esp, "MINTERM_SPACE_MAX", 0)
                m.setattr(esp, "BINARY_SPACE_MAX", 0)
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


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_low_effort_matches_urp(seed):
    on, dc, off = random_function(seed)
    assert_same(lambda: esp.espresso(on, dc, off=off if len(off) else None,
                                     effort="low"))


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_duplicate_and_contained_cubes_match_urp(seed):
    on, dc, off = random_function(seed)
    rng = random.Random(seed)
    fmt = on.fmt
    extra = []
    for c in on.cubes:
        if rng.random() < 0.5:
            extra.append(c)  # a duplicate
        sub = c & random_cube(fmt, rng)
        if not fmt.is_empty(sub):
            extra.append(sub)  # contained in c
    cubes = on.cubes + extra
    rng.shuffle(cubes)
    crowded = Cover(fmt)
    crowded.cubes = cubes
    assert_same(lambda: esp.espresso(crowded, dc,
                                     off=off if len(off) else None))
    assert_same(lambda: esp.expand(crowded, crowded + dc))
    assert_same(lambda: esp.irredundant(crowded, dc))
    assert_same(lambda: esp.reduce_cover(crowded, dc))


@pytest.mark.parametrize("reads", [2, 5, 12, 30, 80, 200])
def test_budget_expiring_mid_pass_returns_the_same_incumbent(reads):
    """A deadline that falls after *reads* clock reads, with the clock
    polled on every tick, interrupts both paths at the same tick.

    The URP recursions tick too, and the minterm path runs none, so
    only espresso's own ticks are counted here: the per-cube and
    per-raise ticks both paths place alike."""
    budget_mod = importlib.import_module("repro.perf.budget")
    bound_passes = []
    for seed in range(40):
        on, dc, off = random_function(seed)
        off_or_none = off if len(off) else None

        def run():
            clock = itertools.count()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(budget_mod, "_TIME_CHECK_MASK", 0)
                m.setattr(urp, "tick", lambda: None)
                m.setattr(budget_mod, "time",
                          SimpleNamespace(monotonic=lambda: next(clock)))
                return esp.espresso(on, dc, off=off_or_none,
                                    budget=Budget(deadline=reads))

        (fast, counts), (slow, slow_counts) = both_paths(run)
        assert fast == slow and counts == slow_counts, seed
        got = Cover(on.fmt)
        got.cubes = fast
        assert verify_minimization(got, on, dc, off_or_none)
        with perf.collect() as stats:
            esp.espresso(on, dc, off=off_or_none)
        passes = counts[COUNTERS.index("espresso_passes")]
        bound_passes.append(passes < stats.espresso_passes)
    if reads < 30:
        assert any(bound_passes)  # the deadline did cut some loops short


def random_binary_function(seed: int) -> Tuple[Cover, Cover, Cover]:
    """(on, dc, off) over 13 to 17 binary inputs and an output part,
    with more than MINTERM_SPACE_MAX minterms and few enough cubes for
    the binary bounds."""
    rng = random.Random(seed)
    while True:
        parts = [2] * rng.randrange(13, 18) + [rng.randrange(1, 9)]
        n = math.prod(parts)
        if esp.MINTERM_SPACE_MAX < n <= esp.BINARY_SPACE_MAX:
            break
    fmt = Format(parts)
    on = Cover(fmt, [random_cube(fmt, rng)
                     for _ in range(rng.randrange(1, 8))])
    dc = Cover(fmt, [random_cube(fmt, rng)
                     for _ in range(rng.randrange(0, 3))])
    off = urp.complement(on + dc)
    if seed % 2:
        off.cubes = [c for c in off.cubes if rng.random() < 0.6]
    assert esp._space(on) is not None
    return on, dc, off


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_binary_formats_above_the_space_bound_match_urp(seed):
    on, dc, off = random_binary_function(seed)
    assert_same(lambda: esp.espresso(on, dc, off=off))
    assert_same(lambda: esp.espresso(on, dc, effort="low"))
