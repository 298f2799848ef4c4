"""Tests for the face algebra on the encoding k-cube."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.constraints.faces import (
    Face,
    count_faces_of_level,
    faces_of_level,
    level_pairs,
    min_level,
    subface_pairs,
    subfaces,
    vertex_mask,
)


def faces(k_max: int = 4) -> st.SearchStrategy:
    return st.integers(min_value=1, max_value=k_max).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.integers(min_value=0, max_value=(1 << k) - 1),
            st.integers(min_value=0, max_value=(1 << k) - 1),
        )
    ).map(lambda t: Face(t[0], t[1], t[2]))


class TestFaceBasics:
    def test_str_roundtrip(self):
        f = Face.from_str("x0x1")
        assert str(f) == "x0x1"
        assert f.level == 2
        assert f.cardinality == 4

    def test_bad_str(self):
        with pytest.raises(ValueError):
            Face.from_str("x02")

    def test_vertex(self):
        v = Face.vertex(3, 0b101)
        assert v.level == 0
        assert list(v.vertices()) == [0b101]

    def test_universe(self):
        u = Face.universe(3)
        assert u.level == 3
        assert len(list(u.vertices())) == 8

    def test_value_normalized(self):
        assert Face(3, 0b001, 0b111) == Face(3, 0b001, 0b001)

    def test_care_width_check(self):
        with pytest.raises(ValueError):
            Face(2, 0b100, 0)

    def test_contains_code(self):
        f = Face.from_str("1x0")
        assert f.contains_code(0b100)
        assert f.contains_code(0b110)
        assert not f.contains_code(0b101)

    def test_inclusion(self):
        big = Face.from_str("xx0")
        small = Face.from_str("1x0")
        assert big.contains(small)
        assert not small.contains(big)
        assert big.contains(big)

    def test_inclusion_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Face.universe(2).contains(Face.universe(3))

    def test_intersection(self):
        a = Face.from_str("1xx")
        b = Face.from_str("x0x")
        i = a.intersect(b)
        assert str(i) == "10x"

    def test_disjoint_intersection(self):
        assert Face.from_str("1xx").intersect(Face.from_str("0xx")) is None

    def test_spanning(self):
        f = Face.spanning(3, [0b000, 0b010])
        assert str(f) == "0x0"
        with pytest.raises(ValueError):
            Face.spanning(3, [])


class TestEnumeration:
    def test_faces_of_level_count(self):
        for k in range(1, 5):
            for lvl in range(k + 1):
                got = list(faces_of_level(k, lvl))
                assert len(got) == count_faces_of_level(k, lvl)
                assert len(set(got)) == len(got)

    def test_faces_of_level_out_of_range(self):
        assert list(faces_of_level(3, 4)) == []
        assert list(faces_of_level(3, -1)) == []

    def test_3cube_face_poset_size(self):
        """The 3-cube face-poset of Fig. 3 has 8 + 12 + 6 + 1 faces."""
        total = sum(count_faces_of_level(3, l) for l in range(4))
        assert total == 27
        assert count_faces_of_level(3, 0) == 8
        assert count_faces_of_level(3, 1) == 12
        assert count_faces_of_level(3, 2) == 6
        assert count_faces_of_level(3, 3) == 1

    def test_subfaces_all_inside(self):
        parent = Face.from_str("x1xx")
        subs = list(subfaces(parent, 1))
        assert subs
        for s in subs:
            assert s.level == 1
            assert parent.contains(s)
        # C(3,2) placements * 2^2 values = 12
        assert len(subs) == 12

    def test_subfaces_level_too_high(self):
        assert list(subfaces(Face.from_str("1x"), 2)) == []


def _regions(k: int):
    """Every face (care, val) of the k-cube."""
    for care in range(1 << k):
        sub = care
        while True:
            yield care, sub
            if not sub:
                break
            sub = (sub - 1) & care


def _values(care: int, val: int, mask: int):
    """(care | mask, val | sub) for each sub of mask, counted upwards."""
    for sub in range(mask + 1):
        if not sub & ~mask:
            yield care | mask, val | sub


def _level_faces(k: int, level: int):
    """Faces of a level: each placement of the x positions, in
    lexicographic order, then each value of the care positions."""
    full = (1 << k) - 1
    for free in combinations(range(k), level):
        yield from _values(0, 0, full & ~sum(1 << p for p in free))


def _subfaces(k: int, care: int, val: int, level: int):
    """Subfaces of a level: each placement of the newly fixed
    positions, in lexicographic order, then each of their values."""
    free = [p for p in range(k) if not (care >> p) & 1]
    for fixed in combinations(free, len(free) - level):
        yield from _values(care, val, sum(1 << p for p in fixed))


class TestPairGenerators:
    """The int pairs the embedding search reads, against a direct
    enumeration in genface order."""

    def test_level_pairs(self):
        for k in range(6):
            for level in range(-1, k + 2):
                want = list(_level_faces(k, level)) \
                    if 0 <= level <= k else []
                assert list(level_pairs(k, level)) == want
                assert [(f.care, f.val)
                        for f in faces_of_level(k, level)] == want

    def test_subface_pairs_and_vertex_mask(self):
        for k in range(6):
            for care, val in _regions(k):
                top = k - care.bit_count()
                assert vertex_mask(k, care, val) == sum(
                    1 << c for c in Face(k, care, val).vertices())
                for low in range(k + 1):
                    want = [pair for level in range(low, top + 1)
                            for pair in _subfaces(k, care, val, level)]
                    assert list(subface_pairs(k, care, val, low)) == want


class TestMinLevel:
    def test_values(self):
        assert min_level(0) == 0
        assert min_level(1) == 0
        assert min_level(2) == 1
        assert min_level(3) == 2
        assert min_level(4) == 2
        assert min_level(5) == 3


@given(faces(), faces())
@settings(max_examples=200)
def test_intersection_matches_vertex_sets(a, b):
    if a.k != b.k:
        return
    inter = a.intersect(b)
    va, vb = set(a.vertices()), set(b.vertices())
    if inter is None:
        assert not (va & vb)
    else:
        assert set(inter.vertices()) == va & vb


@given(faces(), faces())
@settings(max_examples=200)
def test_inclusion_matches_vertex_sets(a, b):
    if a.k != b.k:
        return
    assert a.contains(b) == (set(b.vertices()) <= set(a.vertices()))


@given(faces())
@settings(max_examples=100)
def test_spanning_own_vertices_is_identity(f):
    assert Face.spanning(f.k, list(f.vertices())) == f
