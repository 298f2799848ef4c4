"""Tests for the public encoding verifier."""

import pytest

from repro import perf
from repro.encoding import verify
from repro.encoding.base import Encoding, counting_sequence_code
from repro.encoding.nova import encode_fsm
from repro.encoding.verify import verify_encoded_machine
from repro.eval.instantiate import EncodedPLA, evaluate_encoding
from repro.fsm.benchmarks import benchmark
from repro.fsm.kiss import parse_kiss
from repro.logic.cover import Cover

# binary inputs and a symbolic input in one machine
MIXED_KISS = """
.i 1
.o 1
.s 3
.sym x y
x 0 a b 1
x 1 a c 0
y - a a 0
x - b c 1
y 0 b a 0
y 1 b b 1
x - c a 0
y 1 c b -
"""


def drop_last_cube(pla: EncodedPLA) -> EncodedPLA:
    return EncodedPLA(
        fsm=pla.fsm, state_bits=pla.state_bits, input_bits=pla.input_bits,
        cover=Cover(pla.cover.fmt, pla.cover.cubes[:-1]),
        on=pla.on, dc=pla.dc, off=pla.off, out_bits=pla.out_bits)


class TestVerifier:
    def test_good_encodings_pass(self):
        for name in ("lion", "train4", "bbtas"):
            fsm = benchmark(name)
            r = encode_fsm(fsm, "ihybrid")
            report = verify_encoded_machine(fsm, r.state_encoding, r.pla,
                                            r.symbol_encoding)
            assert report
            assert report.checked_pairs > 0
            assert not report.mismatches

    def test_symbolic_machine(self):
        fsm = benchmark("dk27")
        r = encode_fsm(fsm, "igreedy")
        report = verify_encoded_machine(fsm, r.state_encoding, r.pla,
                                        r.symbol_encoding)
        assert report

    def test_symbolic_machine_requires_symbol_encoding(self):
        fsm = benchmark("dk27")
        r = encode_fsm(fsm, "igreedy")
        with pytest.raises(ValueError):
            verify_encoded_machine(fsm, r.state_encoding, r.pla, None)

    def test_corrupted_cover_detected(self):
        fsm = benchmark("lion")
        r = encode_fsm(fsm, "ihybrid")
        report = verify_encoded_machine(fsm, r.state_encoding,
                                        drop_last_cube(r.pla))
        assert not report.ok
        assert report.mismatches

    def test_wrong_codes_detected(self):
        fsm = benchmark("lion")
        good = encode_fsm(fsm, "ihybrid")
        # evaluate with one encoding, verify against a different one
        other = Encoding(good.state_encoding.nbits,
                         list(reversed(good.state_encoding.codes)))
        report = verify_encoded_machine(fsm, other, good.pla)
        assert not report.ok

    def test_pair_budget_respected(self):
        fsm = benchmark("bbtas")
        r = encode_fsm(fsm, "ihybrid")
        report = verify_encoded_machine(fsm, r.state_encoding, r.pla,
                                        max_pairs=3)
        assert report.checked_pairs == 3

    @pytest.mark.parametrize("name,pairs", [
        ("lion", 11), ("bbtas", 24), ("dk27", 14)])
    def test_checked_pairs_pinned(self, name, pairs):
        fsm = benchmark(name)
        r = encode_fsm(fsm, "ihybrid")
        report = verify_encoded_machine(fsm, r.state_encoding, r.pla,
                                        r.symbol_encoding)
        assert report.ok
        assert report.checked_pairs == pairs

    @pytest.mark.parametrize("algorithm", [
        "iexact", "ihybrid", "igreedy", "iohybrid", "iovariant", "kiss",
        "onehot", "random", "mustang"])
    def test_mixed_binary_and_symbolic_inputs(self, algorithm):
        fsm = parse_kiss(MIXED_KISS, name="mixed")
        r = encode_fsm(fsm, algorithm, seed=1, cache="off")
        assert r.report.verified
        assert r.algorithm == algorithm
        report = verify_encoded_machine(fsm, r.state_encoding, r.pla,
                                        r.symbol_encoding)
        assert report.ok
        # (state, binary vector, symbol) pairs with a row: 4 + 4 + 3
        assert report.checked_pairs == 11
        report = verify_encoded_machine(fsm, r.state_encoding,
                                        drop_last_cube(r.pla),
                                        r.symbol_encoding)
        assert not report.ok
        assert report.mismatches

    def test_only_the_first_matching_row_is_checked(self):
        plain = parse_kiss(".i 1\n.o 1\n0 a b 1\n1 a a 0\n- b a 1\n",
                           name="plain")
        # the second row also covers input 0 of state a, where the
        # first row wins: the same machine under first-match semantics
        shadowed = parse_kiss(".i 1\n.o 1\n0 a b 1\n- a a 0\n- b a 1\n",
                              name="shadowed")
        r = encode_fsm(plain, "ihybrid", cache="off")
        report = verify_encoded_machine(shadowed, r.state_encoding, r.pla)
        assert report.ok
        assert report.checked_pairs == 4


class TestCheckSelection:
    """Small encoded PLAs check the espresso contract on vector sets;
    wider ones keep the URP ``verify_minimization``."""

    @pytest.fixture
    def urp_calls(self, monkeypatch):
        calls = []
        urp_check = verify.verify_minimization
        monkeypatch.setattr(verify, "verify_minimization",
                            lambda *a: calls.append(a) or urp_check(*a))
        return calls

    @pytest.mark.parametrize("name", ["lion", "dk27"])
    @pytest.mark.parametrize("algorithm", ["ihybrid", "kiss"])
    def test_small_encodes_make_no_tautology_calls(self, name, algorithm,
                                                   urp_calls):
        fsm = benchmark(name)
        r = encode_fsm(fsm, algorithm, cache="off")
        with perf.collect() as stats:
            report = verify_encoded_machine(fsm, r.state_encoding, r.pla,
                                            r.symbol_encoding)
        assert report.ok
        assert stats.tautology_calls == 0
        assert not urp_calls

    def test_wide_encode_reaches_verify_minimization(self, urp_calls):
        fsm = benchmark("scf")
        enc = counting_sequence_code(fsm.num_states,
                                     (fsm.num_states - 1).bit_length())
        pla = evaluate_encoding(fsm, enc, minimize=False)
        assert fsm.num_inputs + enc.nbits > 14
        with perf.collect() as stats:
            report = verify_encoded_machine(fsm, enc, pla)
        assert report.ok
        assert len(urp_calls) == 1
        assert stats.tautology_calls > 0
