"""Unit and property tests for positional-cube algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.logic.cube import Format, binary_format

from tests.conftest import enumerate_minterms


def small_formats() -> st.SearchStrategy:
    return st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=4).map(Format)


def cubes_for(fmt: Format) -> st.SearchStrategy:
    fields = [st.integers(min_value=1, max_value=(1 << p) - 1)
              for p in fmt.parts]
    return st.tuples(*fields).map(lambda fs: fmt.cube_from_fields(list(fs)))


fmt_and_two_cubes = small_formats().flatmap(
    lambda fmt: st.tuples(st.just(fmt), cubes_for(fmt), cubes_for(fmt))
)


class TestFormat:
    def test_layout(self):
        fmt = Format([2, 3, 4])
        assert fmt.width == 9
        assert fmt.offsets == (0, 2, 5)
        assert fmt.universe == (1 << 9) - 1
        assert fmt.num_vars == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Format([])

    def test_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            Format([2, 0])

    def test_field_roundtrip(self):
        fmt = Format([2, 3, 2])
        cube = fmt.cube_from_fields([1, 5, 2])
        assert fmt.field(cube, 0) == 1
        assert fmt.field(cube, 1) == 5
        assert fmt.field(cube, 2) == 2

    def test_with_field(self):
        fmt = Format([2, 3])
        cube = fmt.cube_from_fields([3, 7])
        assert fmt.field(fmt.with_field(cube, 1, 2), 1) == 2
        assert fmt.field(fmt.with_field(cube, 1, 2), 0) == 3

    def test_cube_from_fields_range_check(self):
        fmt = Format([2, 2])
        with pytest.raises(ValueError):
            fmt.cube_from_fields([4, 1])
        with pytest.raises(ValueError):
            fmt.cube_from_fields([1])

    def test_literal(self):
        fmt = Format([2, 3])
        lit = fmt.literal(1, (0, 2))
        assert fmt.field(lit, 0) == 3
        assert fmt.field(lit, 1) == 0b101

    def test_literal_range_check(self):
        fmt = Format([2, 3])
        with pytest.raises(ValueError):
            fmt.literal(1, (3,))

    def test_var_of_bit(self):
        fmt = Format([2, 3])
        assert [fmt.var_of_bit(b) for b in range(5)] == [0, 0, 1, 1, 1]
        assert fmt.bit_var == (0, 0, 1, 1, 1)

    def test_binary_and_mv_masks(self):
        # offsets 0, 2, 5, 6, 8: only variables 0 and 3 have two parts
        fmt = Format([2, 3, 1, 2, 4])
        assert fmt.binary_lo == (1 << 0) | (1 << 6)
        assert fmt.mv_masks == (fmt.masks[1], fmt.masks[2], fmt.masks[4])
        for v, p in enumerate(fmt.parts):
            low = 1 << fmt.offsets[v]
            assert bool(fmt.binary_lo & low) == (p == 2)
            assert (fmt.masks[v] in fmt.mv_masks) == (p != 2)
        # the binary low mask touches no bit of a non-binary variable
        for m in fmt.mv_masks:
            assert fmt.binary_lo & m == 0

    def test_is_empty_on_mixed_format(self):
        fmt = Format([2, 3, 1, 2, 4])
        full = fmt.universe
        assert not fmt.is_empty(full)
        for v in range(fmt.num_vars):
            assert fmt.is_empty(full & ~fmt.masks[v])
            # one part left in the field keeps the cube non-empty
            one = 1 << fmt.offsets[v]
            assert not fmt.is_empty((full & ~fmt.masks[v]) | one)

    def test_equality_and_hash(self):
        assert Format([2, 2]) == Format([2, 2])
        assert Format([2, 2]) != Format([2, 3])
        assert hash(Format([2, 2])) == hash(Format([2, 2]))

    def test_binary_format(self):
        fmt = binary_format(3, 2)
        assert fmt.parts == (2, 2, 2, 2)


class TestCubeAlgebra:
    def setup_method(self):
        self.fmt = Format([2, 2, 3])

    def test_empty_detection(self):
        fmt = self.fmt
        assert fmt.is_empty(0)
        cube = fmt.cube_from_fields([1, 2, 4])
        assert not fmt.is_empty(cube)
        assert fmt.is_empty(cube & ~fmt.masks[1])

    def test_intersection(self):
        fmt = self.fmt
        a = fmt.cube_from_fields([3, 1, 7])
        b = fmt.cube_from_fields([1, 3, 5])
        c = fmt.intersect(a, b)
        assert fmt.field(c, 0) == 1
        assert fmt.field(c, 1) == 1
        assert fmt.field(c, 2) == 5
        assert fmt.intersects(a, b)

    def test_disjoint(self):
        fmt = self.fmt
        a = fmt.cube_from_fields([1, 3, 7])
        b = fmt.cube_from_fields([2, 3, 7])
        assert not fmt.intersects(a, b)
        assert fmt.distance(a, b) == 1

    def test_containment(self):
        fmt = self.fmt
        big = fmt.cube_from_fields([3, 3, 7])
        small = fmt.cube_from_fields([1, 2, 3])
        assert fmt.contains(big, small)
        assert not fmt.contains(small, big)

    def test_cofactor_disjoint_is_empty(self):
        fmt = self.fmt
        a = fmt.cube_from_fields([1, 3, 7])
        b = fmt.cube_from_fields([2, 3, 7])
        assert fmt.cofactor(a, b) == 0

    def test_cofactor_rule(self):
        fmt = self.fmt
        a = fmt.cube_from_fields([1, 3, 3])
        p = fmt.cube_from_fields([1, 1, 7])
        cof = fmt.cofactor(a, p)
        assert fmt.field(cof, 0) == 3  # raised where p cares
        assert fmt.field(cof, 1) == 3
        assert fmt.field(cof, 2) == 3

    def test_consensus_distance0(self):
        fmt = self.fmt
        a = fmt.cube_from_fields([3, 1, 7])
        b = fmt.cube_from_fields([1, 3, 7])
        assert fmt.consensus(a, b) == fmt.intersect(a, b)

    def test_consensus_distance1(self):
        fmt = self.fmt
        a = fmt.cube_from_fields([1, 1, 7])
        b = fmt.cube_from_fields([2, 1, 7])
        c = fmt.consensus(a, b)
        assert fmt.field(c, 0) == 3

    def test_consensus_distance2_empty(self):
        fmt = self.fmt
        a = fmt.cube_from_fields([1, 1, 7])
        b = fmt.cube_from_fields([2, 2, 7])
        assert fmt.consensus(a, b) == 0

    def test_minterm_count(self):
        fmt = self.fmt
        assert fmt.minterm_count(fmt.universe) == 2 * 2 * 3
        assert fmt.minterm_count(fmt.cube_from_fields([1, 2, 4])) == 1

    def test_supercube(self):
        fmt = self.fmt
        a = fmt.cube_from_fields([1, 1, 1])
        b = fmt.cube_from_fields([2, 1, 2])
        s = fmt.supercube(a, b)
        assert fmt.contains(s, a) and fmt.contains(s, b)

    def test_full_vars(self):
        fmt = self.fmt
        assert fmt.full_vars(fmt.universe) == 3
        assert fmt.full_vars(fmt.cube_from_fields([3, 1, 7])) == 2


class TestTextIO:
    def test_binary_rendering(self):
        fmt = Format([2, 2, 2])
        cube = fmt.cube_from_fields([1, 2, 3])
        assert fmt.cube_to_str(cube) == "0 1 -"

    def test_mv_rendering_roundtrip(self):
        fmt = Format([2, 5])
        cube = fmt.cube_from_fields([2, 0b10110])
        assert fmt.cube_from_str(fmt.cube_to_str(cube)) == cube

    def test_parse_errors(self):
        fmt = Format([2, 3])
        with pytest.raises(ValueError):
            fmt.cube_from_str("0")
        with pytest.raises(ValueError):
            fmt.cube_from_str("0 01")  # wrong MV token width

    def test_empty_binary_field_renders_tilde(self):
        fmt = Format([2, 2])
        cube = fmt.cube_from_fields([0, 3])
        assert fmt.cube_to_str(cube) == "~ -"
        assert fmt.cube_from_str("~ -") == cube

    def test_mv_bit_strings_are_lsb_first(self):
        # part 0 is the leftmost character of an MV token
        fmt = Format([3])
        assert fmt.cube_to_str(fmt.cube_from_fields([0b001])) == "100"
        assert fmt.cube_to_str(fmt.cube_from_fields([0b100])) == "001"
        assert fmt.cube_from_str("110") == fmt.cube_from_fields([0b011])


def text_io_formats() -> st.SearchStrategy:
    # mixed binary / MV parts; MV radixes above 2 exercise the
    # reversed bit-string token path
    return st.lists(st.sampled_from([2, 2, 3, 5, 7]), min_size=1,
                    max_size=5).map(Format)


@given(st.data())
@settings(max_examples=200)
def test_cube_str_roundtrip(data):
    """cube_from_str inverts cube_to_str for every field value,
    including empty fields (binary ``~``, all-zero MV tokens)."""
    fmt = data.draw(text_io_formats())
    fields = [data.draw(st.integers(min_value=0, max_value=(1 << p) - 1))
              for p in fmt.parts]
    cube = fmt.cube_from_fields(fields)
    text = fmt.cube_to_str(cube)
    assert fmt.cube_from_str(text) == cube
    # rendering is canonical: a second round-trip is a fixpoint
    assert fmt.cube_to_str(fmt.cube_from_str(text)) == text


@given(st.data())
@settings(max_examples=100)
def test_cube_str_tokens_match_parts(data):
    fmt = data.draw(text_io_formats())
    fields = [data.draw(st.integers(min_value=0, max_value=(1 << p) - 1))
              for p in fmt.parts]
    tokens = fmt.cube_to_str(fmt.cube_from_fields(fields)).split()
    assert len(tokens) == fmt.num_vars
    for tok, p in zip(tokens, fmt.parts):
        if p == 2:
            assert tok in ("0", "1", "-", "~")
        else:
            assert len(tok) == p and set(tok) <= {"0", "1"}


class TestVarValidation:
    """literal/field/with_field validate the variable index (regression:
    out-of-range and negative indices used to address wrong mask slots
    or raise bare IndexError deep in the mask arithmetic)."""

    def setup_method(self):
        self.fmt = Format([2, 3, 2])

    @pytest.mark.parametrize("var", [-1, 3, 100])
    def test_literal_rejects_bad_var(self, var):
        with pytest.raises(ValueError, match=f"variable index {var} "):
            self.fmt.literal(var, [0])

    @pytest.mark.parametrize("var", [-1, 3, 100])
    def test_field_rejects_bad_var(self, var):
        with pytest.raises(ValueError, match=f"variable index {var} "):
            self.fmt.field(self.fmt.universe, var)

    @pytest.mark.parametrize("var", [-1, 3, 100])
    def test_with_field_rejects_bad_var(self, var):
        with pytest.raises(ValueError, match=f"variable index {var} "):
            self.fmt.with_field(self.fmt.universe, var, 1)

    def test_message_names_the_format(self):
        with pytest.raises(ValueError, match=r"3 variables"):
            self.fmt.field(self.fmt.universe, 7)

    def test_valid_indices_unaffected(self):
        assert self.fmt.field(self.fmt.universe, 2) == 3
        lit = self.fmt.literal(1, [0, 2])
        assert self.fmt.field(lit, 1) == 0b101


@given(fmt_and_two_cubes)
@settings(max_examples=200)
def test_intersection_commutes(data):
    fmt, a, b = data
    assert fmt.intersect(a, b) == fmt.intersect(b, a)


@given(fmt_and_two_cubes)
@settings(max_examples=200)
def test_intersects_iff_shared_minterm(data):
    fmt, a, b = data
    shared = any(m & ~a == 0 and m & ~b == 0 for m in enumerate_minterms(fmt))
    assert fmt.intersects(a, b) == shared


@given(fmt_and_two_cubes)
@settings(max_examples=200)
def test_containment_is_minterm_subset(data):
    fmt, a, b = data
    subset = all(m & ~a == 0 for m in enumerate_minterms(fmt)
                 if m & ~b == 0)
    assert fmt.contains(a, b) == subset


@given(fmt_and_two_cubes)
@settings(max_examples=200)
def test_supercube_contains_both(data):
    fmt, a, b = data
    s = fmt.supercube(a, b)
    assert fmt.contains(s, a)
    assert fmt.contains(s, b)


@given(fmt_and_two_cubes)
@settings(max_examples=100)
def test_cofactor_covering_identity(data):
    """b covers a  iff  cofactor(a, b) keeps every minterm of the quotient.

    Weaker but useful identity: if cofactor is empty the cubes are
    disjoint, and cofactoring a cube by itself yields the universe.
    """
    fmt, a, b = data
    assert fmt.cofactor(a, a) == fmt.universe
    if fmt.cofactor(a, b) == 0:
        assert not fmt.intersects(a, b)
