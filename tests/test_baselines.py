"""Tests for the KISS, MUSTANG, and random baselines."""

import pytest

from repro.baselines.kiss import kiss_code
from repro.baselines.mustang import MUSTANG_OPTIONS, _pair_weights, mustang_code
from repro.constraints.input_constraints import ConstraintSet, \
    extract_input_constraints
from repro.encoding.base import constraint_satisfied
from repro.eval.tables import random_columns, random_trials
from repro.fsm.benchmarks import benchmark
from repro.fsm.machine import minimum_code_length
from repro.fsm.symbolic_cover import build_symbolic_cover

from tests.conftest import PAPER_WEIGHTS, paper_constraint_masks


class TestKissBaseline:
    def test_satisfies_all_constraints_paper_example(self):
        cs = ConstraintSet(7)
        for m, w in zip(paper_constraint_masks(), PAPER_WEIGHTS):
            cs.add(m, w)
        enc = kiss_code(cs)
        for m in cs.masks():
            assert constraint_satisfied(enc, m)

    def test_satisfies_all_on_real_machines(self):
        for name in ("lion", "bbtas", "dk27", "ex3", "beecount"):
            sc = build_symbolic_cover(benchmark(name))
            cs = extract_input_constraints(sc).state_constraints
            enc = kiss_code(cs)
            for m in cs.masks():
                assert constraint_satisfied(enc, m), name

    def test_code_length_at_least_minimum(self):
        cs = ConstraintSet(7)
        for m in paper_constraint_masks():
            cs.add(m)
        enc = kiss_code(cs)
        assert enc.nbits >= minimum_code_length(7)

    def test_no_constraints_minimum_bits(self):
        enc = kiss_code(ConstraintSet(5))
        assert enc.nbits == minimum_code_length(5)


class TestMustang:
    def test_all_options_produce_valid_encodings(self):
        fsm = benchmark("bbtas")
        for opt in MUSTANG_OPTIONS:
            enc = mustang_code(fsm, option=opt)
            assert len(set(enc.codes)) == fsm.num_states
            assert enc.nbits == minimum_code_length(fsm.num_states)

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError):
            mustang_code(benchmark("lion"), option="zz")

    def test_weights_symmetric_keys(self):
        fsm = benchmark("train4")
        for opt in MUSTANG_OPTIONS:
            w = _pair_weights(fsm, opt)
            for (a, b), val in w.items():
                assert a < b
                assert val > 0

    def test_attracted_pairs_get_close_codes(self):
        """States funnelling into the same next state should sit nearby."""
        fsm = benchmark("lion9")
        enc = mustang_code(fsm, option="p")
        w = _pair_weights(fsm, "p")
        if not w:
            return
        (a, b), _ = max(w.items(), key=lambda kv: kv[1])
        dist = bin(enc.codes[a] ^ enc.codes[b]).count("1")
        assert dist <= 2  # heaviest pair must be near-adjacent

    def test_explicit_code_length(self):
        enc = mustang_code(benchmark("lion"), option="n", nbits=3)
        assert enc.nbits == 3

    def test_deterministic(self):
        fsm = benchmark("beecount")
        assert mustang_code(fsm, "p").codes == mustang_code(fsm, "p").codes


class TestRandomBaseline:
    """The random-assignment protocol of Tables III, IV and VII."""

    def test_default_trial_count(self):
        runs = random_trials("lion", 6)
        assert len(runs) == 6
        for r in runs:
            assert len(set(r.state_encoding.codes)) == 4
        # more than 12 states: the paper's count is capped at 5 trials
        assert len(random_trials("dk512", 16)) == 5

    def test_deterministic_seeding(self):
        codes = [[r.state_encoding.codes
                  for r in random_trials("lion", 5, seed=s)]
                 for s in (7, 7, 8)]
        assert codes[0] == codes[1]
        assert codes[0] != codes[2]

    def test_best_random(self):
        areas = [r.area for r in random_trials("lion", 4, trials=5)]
        cols = random_columns("lion", trials=5)
        assert cols["best"] == min(areas)
        assert cols["avg"] == round(sum(areas) / len(areas), 1)
        assert cols["trials"] == 5
