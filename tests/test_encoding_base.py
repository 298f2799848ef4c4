"""Tests for the Encoding type and satisfaction predicates."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.constraints.input_constraints import ConstraintSet
from repro.encoding.base import (
    Encoding,
    constraint_satisfied,
    counting_sequence_code,
    satisfied_masks,
    satisfied_weight,
)


class TestEncoding:
    def test_valid(self):
        enc = Encoding(2, [0, 1, 2, 3])
        assert enc.n == 4
        assert enc.code_of(2) == 2
        assert enc.as_bits(1) == "01"

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Encoding(2, [0, 1, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Encoding(2, [0, 4])
        with pytest.raises(ValueError):
            Encoding(2, [-1, 0])

    def test_unused_codes(self):
        enc = Encoding(2, [0, 3])
        assert enc.codes == [0, 3]

    def test_widen(self):
        enc = Encoding(2, [0, 1]).widen([1, 0])
        assert enc.nbits == 3
        assert enc.codes == [4, 1]

    def test_widen_wrong_length(self):
        with pytest.raises(ValueError):
            Encoding(2, [0, 1]).widen([1])

    def test_counting_sequence(self):
        enc = counting_sequence_code(5, 3)
        assert enc.codes == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError):
            counting_sequence_code(5, 2)


class TestSatisfaction:
    def test_adjacent_pair_satisfied(self):
        enc = Encoding(2, [0b00, 0b01, 0b10, 0b11])
        assert constraint_satisfied(enc, 0b0011)  # codes 00,01: face 0x

    def test_diagonal_pair_unsatisfied(self):
        enc = Encoding(2, [0b00, 0b01, 0b10, 0b11])
        assert not constraint_satisfied(enc, 0b1001)  # 00,11 spans all

    def test_singletons_and_universe_trivially_satisfied(self):
        enc = Encoding(2, [0, 1, 2])
        assert constraint_satisfied(enc, 0b001)
        assert constraint_satisfied(enc, 0b111)

    def test_satisfied_masks_filters(self):
        enc = Encoding(2, [0b00, 0b01, 0b10, 0b11])
        masks = [0b0011, 0b1001, 0b1100]
        assert set(satisfied_masks(enc, masks)) == {0b0011, 0b1100}

    def test_satisfied_weight(self):
        cs = ConstraintSet(4)
        cs.add(0b0011, 5)
        cs.add(0b1001, 2)
        enc = Encoding(2, [0b00, 0b01, 0b10, 0b11])
        assert satisfied_weight(enc, cs) == 5


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_satisfaction_matches_bruteforce(seed):
    """constraint_satisfied == 'no foreign code in the spanned subcube'."""
    import random

    rng = random.Random(seed)
    n = rng.randrange(2, 7)
    nbits = rng.randrange((n - 1).bit_length() or 1, 5)
    if (1 << nbits) < n:
        return
    codes = rng.sample(range(1 << nbits), n)
    enc = Encoding(nbits, codes)
    mask = rng.randrange(1, 1 << n)
    members = [codes[i] for i in range(n) if (mask >> i) & 1]
    if len(members) <= 1:
        assert constraint_satisfied(enc, mask)
        return
    ones = 0
    zeros = 0
    for c in members:
        ones |= c
        zeros |= ~c
    care = ((1 << nbits) - 1) & ~(ones & zeros)
    val = members[0] & care
    foreign = any(
        (codes[i] ^ val) & care == 0
        for i in range(n) if not (mask >> i) & 1
    )
    assert constraint_satisfied(enc, mask) == (not foreign)
