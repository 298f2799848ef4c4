"""Tests for iexact_code / semiexact_code and the counting lower bounds."""

from itertools import permutations
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.constraints.input_constraints import ConstraintSet
from repro.constraints.poset import InputGraph
from repro.encoding.base import Encoding, constraint_satisfied
from repro.encoding.iexact import (
    count_cond1,
    count_cond2,
    count_cond3,
    iexact_code,
    mincube_dim,
    pos_equiv,
    semiexact_code,
)
from repro.fsm.machine import minimum_code_length

from tests.conftest import paper_constraint_masks


def cs_from(masks, n, weights=None):
    cs = ConstraintSet(n)
    for i, m in enumerate(masks):
        cs.add(m, weights[i] if weights else 1)
    return cs


class TestCountingBounds:
    def test_paper_example_3_3_2_2_1(self):
        """count_cond1/2 give 3, count_cond3 raises to 4."""
        ig = InputGraph(7, paper_constraint_masks())
        k12 = count_cond2(ig, count_cond1(ig))
        assert k12 == 3
        assert count_cond3(ig, k12) == 4
        assert mincube_dim(ig) == 4

    def test_no_constraints(self):
        ig = InputGraph(5, [])
        assert mincube_dim(ig) == minimum_code_length(5)

    def test_power_of_two_constraints_no_cond3_bump(self):
        ig = InputGraph(4, [0b0011, 0b1100])
        k = mincube_dim(ig)
        assert k == 2

    def test_many_fathers_forces_dimension(self):
        # a singleton with f fathers needs k >= f
        masks = [0b00011, 0b00101, 0b01001, 0b10001]
        ig = InputGraph(5, masks)
        assert mincube_dim(ig) >= 4


class TestPosEquiv:
    def test_paper_example_k4(self):
        ig = InputGraph(7, paper_constraint_masks())
        enc = pos_equiv(ig, 4)
        assert enc is not None
        for mask in paper_constraint_masks():
            assert constraint_satisfied(enc, mask)

    def test_k3_infeasible_for_paper_example(self):
        ig = InputGraph(7, paper_constraint_masks())
        assert pos_equiv(ig, 3) is None

    def test_no_constraints_any_k(self):
        ig = InputGraph(4, [])
        enc = pos_equiv(ig, 2)
        assert enc is not None
        assert len(set(enc.codes)) == 4


class TestIexact:
    def test_paper_example_minimum_is_4(self):
        cs = cs_from(paper_constraint_masks(), 7)
        enc = iexact_code(cs)
        assert enc is not None
        assert enc.nbits == 4
        for mask in cs.masks():
            assert constraint_satisfied(enc, mask)

    def test_trivial_single_constraint(self):
        cs = cs_from([0b0011], 4)
        enc = iexact_code(cs)
        assert enc.nbits == 2
        assert constraint_satisfied(enc, 0b0011)

    def test_disjoint_pair(self):
        cs = cs_from([0b0011, 0b1100], 4)
        enc = iexact_code(cs)
        assert enc.nbits == 2
        assert constraint_satisfied(enc, 0b0011)
        assert constraint_satisfied(enc, 0b1100)

    def test_chain_of_nested(self):
        cs = cs_from([0b0011, 0b0111, 0b1111], 4)  # universe dropped
        enc = iexact_code(cs)
        assert enc is not None
        for m in cs.masks():
            assert constraint_satisfied(enc, m)

    def test_gives_up_within_budget(self):
        # heavy instance + tiny budgets: must give up quickly — either
        # None (search caps exhausted) or BudgetExhausted (out of wall
        # clock) — but never hang
        from repro.errors import BudgetExhausted

        rng = random.Random(7)
        masks = [rng.randrange(1, 1 << 12) for _ in range(14)]
        cs = cs_from([m for m in masks if bin(m).count("1") > 1], 12)
        try:
            enc = iexact_code(cs, max_work=50, max_vectors=2,
                              time_budget=2.0)
        except BudgetExhausted as exc:
            assert exc.limit == "time"
        else:
            assert enc is None or isinstance(enc, Encoding)

    def test_sweep_work_cap_ends_the_sweep(self, monkeypatch):
        """The sweep gives up once its calls' total work passes the
        cap, after the same calls whatever the host's speed."""
        from repro import perf
        from repro.encoding import iexact

        rng = random.Random(7)
        masks = [rng.randrange(1, 1 << 12) for _ in range(14)]
        cs = cs_from([m for m in masks if bin(m).count("1") > 1], 12)
        with perf.collect() as stats:
            assert iexact_code(cs, max_work=50, time_budget=None) is None
        assert stats.pos_equiv_work > 1000  # the whole sweep
        monkeypatch.setattr(iexact, "SWEEP_MAX_WORK", 120)
        with perf.collect() as stats:
            assert iexact_code(cs, max_work=50, time_budget=None) is None
        assert stats.pos_equiv_work == 3 * 51  # three capped calls

    def test_time_exhaustion_raises_structured_error(self):
        from repro.errors import BudgetExhausted

        rng = random.Random(7)
        masks = [rng.randrange(1, 1 << 12) for _ in range(14)]
        cs = cs_from([m for m in masks if bin(m).count("1") > 1], 12)
        with pytest.raises(BudgetExhausted):
            iexact_code(cs, max_work=None, max_vectors=64,
                        time_budget=0.0)


def brute_force_min_k(masks, n, k_max=4):
    """Smallest k admitting codes satisfying all constraints (brute)."""
    for k in range(minimum_code_length(n), k_max + 1):
        for combo in permutations(range(1 << k), n):
            ok = True
            enc = Encoding(k, list(combo))
            for m in masks:
                if not constraint_satisfied(enc, m):
                    ok = False
                    break
            if ok:
                return k
    return None


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_iexact_matches_brute_force_minimum(seed):
    """On tiny instances, iexact finds the true minimum code length."""
    rng = random.Random(seed)
    n = rng.randrange(3, 5)
    masks = []
    for _ in range(rng.randrange(1, 3)):
        m = rng.randrange(1, 1 << n)
        if bin(m).count("1") >= 2 and m != (1 << n) - 1:
            masks.append(m)
    cs = cs_from(masks, n)
    enc = iexact_code(cs)
    brute = brute_force_min_k(masks, n)
    assert brute is not None
    assert enc is not None
    assert enc.nbits == brute
    for m in masks:
        assert constraint_satisfied(enc, m)


class TestSemiexact:
    def test_satisfies_when_feasible(self):
        masks = [0b0011, 0b1100]
        enc = semiexact_code(masks, 4, 2)
        assert enc is not None
        for m in masks:
            assert constraint_satisfied(enc, m)

    def test_none_when_minbits_too_small(self):
        # paper example needs 4 bits; semiexact at 3 must fail
        enc = semiexact_code(paper_constraint_masks(), 7, 3)
        assert enc is None

    def test_subset_selection_works(self):
        # a satisfiable subset of the paper constraints at 3 bits
        masks = [paper_constraint_masks()[3]]  # {1,5,6}
        enc = semiexact_code(masks, 7, 3)
        assert enc is not None
        assert constraint_satisfied(enc, masks[0])

    def test_io_check_veto(self):
        # forbid state 0 from getting code 0: the veto must be respected
        def veto(state, code, codes):
            return not (state == 0 and code == 0)

        enc = semiexact_code([], 4, 2, io_check=veto)
        assert enc is not None
        assert enc.codes[0] != 0
