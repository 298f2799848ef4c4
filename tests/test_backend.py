"""Tests for :mod:`repro.logic.backend` — the whole-cover kernels.

Every kernel must return exactly what a per-cube loop over the
:class:`~repro.logic.cube.Format` primitives returns, including list
ordering: the espresso loop, URP and the exact minimizer all depend on
it.  The property tests drive the kernels over random multiple-valued
formats — binary and wide MV parts, fields wider than a machine word —
and random covers, including degenerate cubes with empty fields.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import backend
from repro.logic.cover import Cover
from repro.logic.cube import Format

# parts chosen so draws cover binary vars, odd MV radixes, and formats
# wider than one 64-bit word
PART_CHOICES = (2, 2, 2, 3, 4, 5, 17, 40)


@st.composite
def fmt_and_cover(draw, max_cubes=96):
    parts = draw(st.lists(st.sampled_from(PART_CHOICES),
                          min_size=1, max_size=5))
    fmt = Format(parts)

    bits = draw(st.randoms(use_true_random=False))

    def cube():
        c = 0
        for v, p in enumerate(parts):
            f = bits.getrandbits(p)
            if f == 0 and bits.random() < 0.7:
                # mostly non-empty, but keep some empty fields so the
                # kernels see degenerate cubes too
                f = 1 << (bits.getrandbits(16) % p)
            c |= f << fmt.offsets[v]
        return c

    n = draw(st.integers(min_value=0, max_value=max_cubes))
    cubes = [cube() for _ in range(n)]
    probe = cube()
    return fmt, cubes, probe


# ---------------------------------------------------------------------------
# per-cube references over the Format primitives
# ---------------------------------------------------------------------------
def ref_cofactor(fmt: Format, cubes, against: int) -> List[int]:
    return [fmt.cofactor(c, against) for c in cubes
            if fmt.intersects(c, against)]


def ref_intersect_cube(fmt: Format, cubes, cube: int) -> List[int]:
    return [fmt.intersect(c, cube) for c in cubes
            if not fmt.is_empty(fmt.intersect(c, cube))]


def ref_single_cube_containment(fmt: Format, cubes) -> List[int]:
    order = sorted(set(cubes), key=lambda c: (-fmt.minterm_count(c), c))
    kept: List[int] = []
    for c in order:
        if not any(fmt.contains(k, c) for k in kept):
            kept.append(c)
    return kept


def ref_var_profile(fmt: Format, cubes):
    out = []
    for m in fmt.masks:
        fields = [c & m for c in cubes if c & m != m]
        union = 0
        for f in fields:
            union |= f
        out.append((len(fields), len(set(fields)) > 1, union))
    return out


def ref_consensus(fmt: Format, a: int, b: int) -> List[int]:
    """Per-variable MV consensus set of one pair (iterated consensus is
    complete for MV covers only when distance-0 pairs yield one cube
    per variable)."""
    inter = fmt.intersect(a, b)
    union = fmt.supercube(a, b)
    empty = [m for m in fmt.masks if not inter & m]
    d = fmt.distance(a, b)
    assert d == len(empty)
    if d > 1:
        return []
    if d == 1:
        m = empty[0]
        c = (inter & ~m) | (union & m)
        return [] if fmt.is_empty(c) else [c]
    return [(inter & ~m) | (union & m) for m in fmt.masks]


def ref_face_vertices(k: int, care: int, val: int) -> List[int]:
    return [code for code in range(1 << k) if (code ^ val) & care == 0]


# ---------------------------------------------------------------------------
# property tests: kernels vs the per-cube references
# ---------------------------------------------------------------------------
class TestKernelEquivalence:
    """Each kernel must equal its per-cube reference, order included."""

    @given(fmt_and_cover())
    @settings(max_examples=120, deadline=None)
    def test_intersect_contains_distance(self, data):
        fmt, cubes, probe = data
        assert backend.intersect_cube(fmt, cubes, probe) == \
            ref_intersect_cube(fmt, cubes, probe)
        assert backend.cofactor(fmt, cubes, probe) == \
            ref_cofactor(fmt, cubes, probe)
        assert backend.contain_any(fmt, cubes, probe) == \
            any(fmt.contains(k, probe) for k in cubes)
        assert backend.any_intersects(fmt, cubes, probe) == \
            any(fmt.intersects(c, probe) for c in cubes)
        assert backend.contained_mask(fmt, cubes, probe) == \
            [fmt.contains(probe, c) for c in cubes]
        assert backend.minterm_counts(fmt, cubes) == \
            [fmt.minterm_count(c) for c in cubes]

    @given(fmt_and_cover())
    @settings(max_examples=80, deadline=None)
    def test_batch_and_scan_kernels(self, data):
        fmt, cubes, probe = data
        probes = cubes[::3] + [probe]
        assert backend.intersect_counts(fmt, cubes, probes) == \
            [sum(fmt.intersects(c, p) for c in cubes) for p in probes]
        assert backend.single_cube_containment(fmt, cubes) == \
            ref_single_cube_containment(fmt, cubes)
        assert backend.var_profile(fmt, cubes) == \
            ref_var_profile(fmt, cubes)
        assert backend.consensus_scan(fmt, cubes, probe) == \
            [c for b in cubes for c in ref_consensus(fmt, probe, b)]

    @given(fmt_and_cover())
    @settings(max_examples=60, deadline=None)
    def test_cover_ops_match_per_cube_reference(self, data):
        """The Cover methods (the public surface) route through the
        kernels and agree with the references."""
        fmt, cubes, probe = data
        cover = Cover(fmt)
        cover.cubes = list(cubes)
        assert cover.cofactor(probe).cubes == \
            ref_cofactor(fmt, cubes, probe)
        assert cover.intersect_cube(probe).cubes == \
            ref_intersect_cube(fmt, cubes, probe)
        assert cover.single_cube_containment().cubes == \
            ref_single_cube_containment(fmt, cubes)
        assert cover.contain_any(probe) == \
            any(fmt.contains(k, probe) for k in cubes)
        assert cover.any_intersects(probe) == \
            any(fmt.intersects(c, probe) for c in cubes)

    @given(st.integers(min_value=1, max_value=10),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_face_kernels(self, k, rng):
        n = rng.randrange(1, 40)
        states = list(range(n))
        codes = [rng.getrandbits(k) for _ in states]
        ic = sum(1 << s for s in states if rng.random() < 0.5)
        care = rng.getrandbits(k)
        val = rng.getrandbits(k) & care
        vertices = ref_face_vertices(k, care, val)
        assert backend.face_vertices(k, care, val) == vertices
        in_face = set(vertices)
        assert backend.face_members_ok(states, codes, ic, care, val) == \
            all((code in in_face) == bool((ic >> s) & 1)
                for s, code in zip(states, codes))


class TestEmptyCubeScc:
    def test_empty_subset_of_empty_is_kept_like_python(self):
        """Regression: all empty cubes tie at minterm count 0, so a
        bitwise subset can precede its container in canonical order and
        the sequential scan keeps BOTH — an all-pairs containment test
        would wrongly drop it."""
        fmt = Format([2, 2])
        sub = 0b0001  # empty (var 1 field is 0), subset of the next
        sup = 0b0011  # empty as well, strictly more bits
        cubes = [sub, sup] + [0b1110] * 40
        kept = backend.single_cube_containment(fmt, cubes)
        assert sub in kept and sup in kept
        assert kept == ref_single_cube_containment(fmt, cubes)
