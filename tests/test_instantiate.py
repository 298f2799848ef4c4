"""Tests for PLA instantiation: the encoded machine must behave identically.

The strongest check in the suite: after encoding and re-minimization,
evaluating the minimized cover on every (input, state) pair must give
exactly the next-state code and outputs the original FSM specifies.
The one-pass construction is also checked against the field-list
construction with a URP complement for the unused codes
(:func:`oracle_instantiate`): the same on and off cube lists, the same
don't-care function.
"""

import itertools
import random

import pytest

from repro import perf
from repro.encoding.base import Encoding
from repro.encoding.nova import encode_fsm
from repro.encoding.onehot import random_code
from repro.eval.instantiate import (
    _unused_code_fields,
    evaluate_encoding,
    instantiate,
)
from repro.fsm.benchmarks import benchmark, benchmark_names
from repro.fsm.machine import FSM, Transition, minimum_code_length
from repro.logic.cover import Cover
from repro.logic.cube import Format
from repro.logic.urp import complement
from repro.logic.verify import verify_minimization


def eval_cover(pla, input_bits: str, state_code: int):
    """OR of the output parts of all cubes containing the minterm."""
    fmt = pla.cover.fmt
    out_var = fmt.num_vars - 1
    fields = [{"0": 1, "1": 2}[ch] for ch in input_bits]
    fields += [2 if (state_code >> b) & 1 else 1
               for b in range(pla.state_bits)]
    fields += [(1 << fmt.parts[out_var]) - 1]
    minterm = fmt.cube_from_fields(fields)
    result = 0
    for cube in pla.cover.cubes:
        if fmt.intersects(cube, minterm):
            result |= fmt.field(cube, out_var)
    return result


def check_simulation(name: str, enc: Encoding, symbol_enc=None) -> None:
    fsm = benchmark(name)
    pla = evaluate_encoding(fsm, enc, symbol_enc)
    assert verify_minimization(
        pla.cover, pla.on, pla.dc,
        pla.off if len(pla.off) else None,
    ), f"{name}: minimized cover violates the espresso contract"
    sbits = pla.state_bits
    if fsm.has_symbolic_input:
        input_sets = [
            (symbol_enc.as_bits(fsm.symbol_index(sym))[::-1], sym)
            for sym in fsm.symbolic_input_values
        ]
    else:
        input_sets = [("".join(bits), None)
                      for bits in itertools.product("01",
                                                    repeat=fsm.num_inputs)]
    for state in fsm.states:
        code = enc.code_of(fsm.state_index(state))
        for input_bits, sym in input_sets:
            expected = fsm.next_state_of(state, "" if sym else input_bits,
                                         symbol=sym)
            if expected is None:
                continue  # unspecified: any behaviour is legal
            nxt, outs = expected
            got = eval_cover(pla, input_bits, code)
            got_state = got & ((1 << sbits) - 1)
            want_state = enc.code_of(fsm.state_index(nxt)) if nxt != "*" \
                else None
            if want_state is not None:
                assert got_state == want_state, (
                    f"{name}: {state}/{input_bits} -> wrong next code"
                )
            for j, ch in enumerate(outs):
                bit = (got >> (sbits + j)) & 1
                if ch == "1":
                    assert bit == 1, f"{name}: output {j} should be 1"
                elif ch == "0":
                    assert bit == 0, f"{name}: output {j} should be 0"


class TestInstantiate:
    def test_layout(self):
        fsm = benchmark("lion")
        enc = Encoding(2, [0, 1, 2, 3])
        on, dc, off, input_bits, state_bits, out_bits = instantiate(fsm, enc)
        assert input_bits == 2 and state_bits == 2 and out_bits == 0
        assert len(on) > 0

    def test_size_mismatch_rejected(self):
        fsm = benchmark("lion")
        with pytest.raises(ValueError):
            instantiate(fsm, Encoding(2, [0, 1, 2]))

    def test_symbolic_machine_needs_symbol_encoding(self):
        fsm = benchmark("dk27")
        enc = Encoding(3, list(range(7)))
        with pytest.raises(ValueError):
            instantiate(fsm, enc)

    def test_unused_codes_become_dc(self):
        fsm = benchmark("lion9")  # 9 states -> 4 bits, 7 unused codes
        enc = Encoding(4, list(range(9)))
        on, dc, off, _, _, _ = instantiate(fsm, enc)
        assert len(dc) > 0

    def test_area_formula(self):
        fsm = benchmark("lion")
        pla = evaluate_encoding(fsm, Encoding(2, [0, 1, 2, 3]))
        expected = (2 * (2 + 2) + 2 + 1) * pla.num_cubes
        assert pla.area == expected


class TestSimulationEquivalence:
    def test_lion_sequential_codes(self):
        check_simulation("lion", Encoding(2, [0, 1, 2, 3]))

    def test_lion_random_codes(self):
        rng = random.Random(3)
        check_simulation("lion", random_code(4, rng=rng))

    def test_shiftreg_identity_codes(self):
        check_simulation("shiftreg", Encoding(3, list(range(8))))

    def test_bbtas_wide_codes(self):
        check_simulation("bbtas", Encoding(4, [0, 3, 5, 9, 12, 15]))

    def test_train4(self):
        check_simulation("train4", Encoding(2, [2, 0, 1, 3]))

    def test_symbolic_machine_dk27(self):
        enc = Encoding(3, [0, 1, 2, 3, 4, 5, 6])
        sym = Encoding(1, [0, 1])
        check_simulation("dk27", enc, sym)

    def test_nova_encodings_simulate_correctly(self):
        from repro.encoding.nova import encode_fsm

        for name in ("lion", "train4", "bbtas"):
            for alg in ("ihybrid", "igreedy", "iohybrid"):
                r = encode_fsm(benchmark(name), alg)
                check_simulation(name, r.state_encoding, r.symbol_encoding)


# ----------------------------------------------------------------------
# the field-list construction with a URP complement, as the oracle
# ----------------------------------------------------------------------
def _oracle_code_fields(code, bits):
    return [2 if (code >> b) & 1 else 1 for b in range(bits)]


def _oracle_unused_cubes(codes, bits):
    if not bits:
        return []
    fmt = Format([2] * bits)
    used = Cover(fmt, (fmt.cube_from_fields(_oracle_code_fields(c, bits))
                       for c in codes))
    return [[fmt.field(c, v) for v in range(bits)]
            for c in complement(used).cubes]


def oracle_instantiate(fsm, enc, symbol_enc=None, out_symbol_enc=None):
    sbits = enc.nbits
    ibits = symbol_enc.nbits if symbol_enc is not None else 0
    obits = out_symbol_enc.nbits if out_symbol_enc is not None else 0
    n_in = fsm.num_inputs
    fmt = Format([2] * (n_in + ibits + sbits)
                 + [sbits + fsm.num_outputs + obits])
    on, dc, off = Cover(fmt), Cover(fmt), Cover(fmt)
    full_state = (1 << sbits) - 1
    for t in fsm.transitions:
        fields = [{"0": 1, "1": 2, "-": 3}[ch] for ch in t.inputs]
        if symbol_enc is not None:
            fields += _oracle_code_fields(symbol_enc.code_of(
                fsm.symbol_index(t.symbol)), ibits)
        if t.present == "*":
            fields += [3] * sbits
        else:
            fields += _oracle_code_fields(
                enc.code_of(fsm.state_index(t.present)), sbits)
        on_out = dc_out = off_out = 0
        if t.next == "*":
            dc_out |= full_state
        else:
            ncode = enc.code_of(fsm.state_index(t.next))
            on_out |= ncode
            off_out |= full_state & ~ncode
        for j, ch in enumerate(t.outputs):
            if ch == "1":
                on_out |= 1 << (sbits + j)
            elif ch == "-":
                dc_out |= 1 << (sbits + j)
            else:
                off_out |= 1 << (sbits + j)
        if out_symbol_enc is not None:
            ocode = out_symbol_enc.code_of(
                fsm.out_symbol_index(t.out_symbol))
            base = sbits + fsm.num_outputs
            on_out |= ocode << base
            off_out |= (((1 << obits) - 1) & ~ocode) << base
        if on_out:
            on.append(fmt.cube_from_fields(fields + [on_out]))
        if dc_out:
            dc.append(fmt.cube_from_fields(fields + [dc_out]))
        if off_out:
            off.append(fmt.cube_from_fields(fields + [off_out]))
    all_outputs = (1 << (sbits + fsm.num_outputs + obits)) - 1
    for ufields in _oracle_unused_cubes(enc.codes, sbits):
        dc.append(fmt.cube_from_fields(
            [3] * (n_in + ibits) + ufields + [all_outputs]))
    if symbol_enc is not None:
        for ufields in _oracle_unused_cubes(symbol_enc.codes, ibits):
            dc.append(fmt.cube_from_fields(
                [3] * n_in + ufields + [3] * sbits + [all_outputs]))
    return on, dc, off, n_in + ibits, sbits, obits


def assert_matches_oracle(fsm, enc, symbol_enc=None, out_symbol_enc=None):
    on, dc, off, *layout = instantiate(fsm, enc, symbol_enc, out_symbol_enc)
    o_on, o_dc, o_off, *o_layout = oracle_instantiate(
        fsm, enc, symbol_enc, out_symbol_enc)
    assert on.fmt == o_on.fmt and layout == o_layout
    assert on.cubes == o_on.cubes
    assert off.cubes == o_off.cubes
    assert dc.covers(o_dc) and o_dc.covers(dc), "dc functions differ"


def _codes(n, extra, rng):
    return random_code(n, minimum_code_length(n) + extra, rng)


def _random_machine(rng, name, n_in, n_sym=0, n_osym=0, n_out=2):
    """Rows per (symbol, state), some with ``*`` as present or next
    state, in random order."""
    states = [f"s{i}" for i in range(rng.randrange(2, 10))]
    symbols = [f"x{i}" for i in range(n_sym)]
    osyms = [f"o{i}" for i in range(n_osym)]
    rows = []
    for sym in symbols or [None]:
        for present in states + ["*"]:
            for _ in range(rng.randrange(1, 3)):
                rows.append(Transition(
                    "".join(rng.choice("01-") for _ in range(n_in)),
                    present,
                    "*" if rng.random() < 0.15 else rng.choice(states),
                    "".join(rng.choice("01-") for _ in range(n_out)),
                    sym, rng.choice(osyms) if osyms else None))
    rng.shuffle(rows)
    return FSM(name, n_in, n_out, states, rows, reset=states[0],
               symbolic_input_values=symbols, symbolic_output_values=osyms)


SMALL_ENOUGH = [name for name in benchmark_names("all")
                if benchmark(name).num_states <= 40]


class TestOraclePlaEquivalence:
    @pytest.mark.parametrize("name", SMALL_ENOUGH)
    def test_builtin_machine(self, name):
        fsm = benchmark(name)
        rng = random.Random(name)
        for extra in (0, 1, 3):
            symbol_enc = (_codes(len(fsm.symbolic_input_values), extra, rng)
                          if fsm.has_symbolic_input else None)
            assert_matches_oracle(fsm, _codes(fsm.num_states, extra, rng),
                                  symbol_enc)

    def test_generated_symbolic_and_star_rows(self):
        rng = random.Random(26)
        shapes = [(3, 0, 0), (0, 4, 0), (2, 3, 0), (2, 0, 3), (1, 3, 5),
                  (0, 0, 0)]
        for i, (n_in, n_sym, n_osym) in enumerate(shapes * 3):
            fsm = _random_machine(rng, f"gen{i}", n_in, n_sym, n_osym)
            assert any(t.present == "*" for t in fsm.transitions)
            for extra in (0, 1, 3):
                assert_matches_oracle(
                    fsm, _codes(fsm.num_states, extra, rng),
                    _codes(n_sym, extra, rng) if n_sym else None,
                    _codes(n_osym, extra, rng) if n_osym else None)

    def test_overlapping_later_row_keeps_every_row(self):
        """A later, less-specified row that disagrees with an earlier
        one adds its own cubes too: the overlap gets both rows' on and
        off parts (the hole the gate then reports)."""
        rows = [Transition("00", "a", "b", "1"),
                Transition("0-", "a", "a", "0"),
                Transition("--", "b", "a", "-")]
        fsm = FSM("overlap", 2, 1, ["a", "b", "c"], rows, reset="a")
        enc = Encoding(2, [1, 2, 0])
        assert_matches_oracle(fsm, enc)
        on, dc, off, *_ = instantiate(fsm, enc)
        fmt = on.fmt
        first = fmt.cube_from_fields([1, 1, 2, 1, 0b110])
        second = fmt.cube_from_fields([1, 3, 2, 1, 0b001])
        assert on.cubes[:2] == [first, second]
        assert fmt.intersects(on.cubes[0], off.cubes[1])


def _code_set(field, bits):
    """The codes a cube of *bits* binary fields contains."""
    return {c for c in range(1 << bits)
            if all((field >> 2 * k) & (2 if (c >> k) & 1 else 1)
                   for k in range(bits))}


class TestUnusedCodeSplit:
    def test_cubes_partition_the_unused_codes(self):
        rng = random.Random(7)
        for bits in range(1, 11):
            size = 1 << bits
            for n in sorted({0, 1, size // 3, size // 2, size - 1, size}):
                used = set(rng.sample(range(size), n))
                seen = set()
                for field in _unused_code_fields(sorted(used), bits):
                    codes = _code_set(field, bits)
                    assert codes and not codes & used and not codes & seen
                    seen |= codes
                assert seen == set(range(size)) - used

    def test_zero_bits_emit_nothing(self):
        assert _unused_code_fields([0], 0) == []
        assert _unused_code_fields([], 0) == []

    def test_all_used_and_none_used(self):
        assert _unused_code_fields(list(range(8)), 3) == []
        assert _unused_code_fields([], 3) == [0b111111]

    @pytest.mark.parametrize("name,options", [
        ("lion9", {"algorithm": "kiss"}),
        ("lion9", {"algorithm": "random", "seed": 5,
                   "nbits": minimum_code_length(9) + 2}),
    ])
    def test_encodes_make_no_complement_calls(self, name, options):
        with perf.collect() as stats:
            encode_fsm(benchmark(name), cache="off", **options)
        assert stats.espresso_passes > 0
        assert stats.complement_calls == 0
