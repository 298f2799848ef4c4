"""The vector-set verification gate equals a per-pair scalar simulator.

``repro.encoding.verify`` checks each state on vector sets: one int per
input column, cube and row.  The reference below is the gate it
replaced, kept only here as an oracle: it evaluates the minimized cover
on one (state, input vector) pair at a time, finds the first matching
row with ``FSM.matching_row``, and checks the espresso contract with
the URP ``verify_minimization``.  Its input space is every binary input
vector (past 14 bits, the row-induced vectors) times every
symbolic-input value.

Reports must be identical — ``ok``, ``checked_pairs`` and every
mismatch string in order — on generated binary, symbolic, mixed,
symbolic-output and wide (sampled) machines plus three benchmark ones,
encoded by five algorithms, with mutated covers (a dropped cube, one
flipped output bit), swapped or over-wide state codes and overlapping
rows that disagree, under ``max_pairs`` caps that cut a sweep in the
first state or a later one.
"""

import itertools
import random

import pytest

from repro.encoding.base import Encoding
from repro.encoding.nova import encode_fsm
from repro.encoding.verify import VerificationReport, verify_encoded_machine
from repro.errors import ConstraintError
from repro.eval.instantiate import EncodedPLA
from repro.fsm.benchmarks import benchmark
from repro.fsm.machine import FSM, Transition
from repro.logic.cover import Cover
from repro.logic.verify import verify_minimization

EXHAUSTIVE_INPUT_BITS = 14


def _eval_cover(pla: EncodedPLA, input_bits: str, symbol_bits: str,
                state_code: int) -> int:
    fmt = pla.cover.fmt
    out_var = fmt.num_vars - 1
    fields = [{"0": 1, "1": 2}[ch] for ch in input_bits + symbol_bits]
    fields += [2 if (state_code >> b) & 1 else 1
               for b in range(pla.state_bits)]
    fields += [(1 << fmt.parts[out_var]) - 1]
    minterm = fmt.cube_from_fields(fields)
    result = 0
    for cube in pla.cover.cubes:
        if fmt.intersects(cube, minterm):
            result |= fmt.field(cube, out_var)
    return result


def reference(fsm, enc, pla, symbol_enc=None, out_symbol_enc=None,
              max_pairs=20_000):
    """The per-pair gate: one cover evaluation per (state, vector)."""
    report = VerificationReport(ok=True, checked_pairs=0)
    if not verify_minimization(pla.cover, pla.on, pla.dc,
                               pla.off if len(pla.off) else None):
        report.ok = False
        report.mismatches.append("minimized cover violates espresso contract")
        return report

    sbits = pla.state_bits
    if fsm.has_symbolic_input and symbol_enc is None:
        raise ConstraintError("symbolic machine needs its symbol encoding")
    if fsm.num_inputs <= EXHAUSTIVE_INPUT_BITS:
        vectors = ["".join(bits) for bits in itertools.product(
            "01", repeat=fsm.num_inputs)]
    else:
        vectors = list(dict.fromkeys(t.inputs.replace("-", fill)
                                     for t in fsm.transitions
                                     for fill in "01"))
    symbols = fsm.symbolic_input_values or [None]
    input_space = [
        (vec, "" if sym is None
         else symbol_enc.as_bits(fsm.symbol_index(sym))[::-1], sym)
        for sym in symbols for vec in vectors]

    if fsm.has_symbolic_output and out_symbol_enc is None:
        raise ConstraintError(
            "machine with symbolic output needs its encoding")

    for state in fsm.states:
        code = enc.code_of(fsm.state_index(state))
        for input_bits, symbol_bits, symbol in input_space:
            if report.checked_pairs >= max_pairs:
                return report
            row = fsm.matching_row(state, input_bits, symbol=symbol)
            if row is None:
                continue
            report.checked_pairs += 1
            label = (f"{symbol} {input_bits}"
                     if symbol is not None and input_bits
                     else input_bits or symbol)
            nxt, outs = row.next, row.outputs
            got = _eval_cover(pla, input_bits, symbol_bits, code)
            if out_symbol_enc is not None:
                want_osym = out_symbol_enc.code_of(
                    fsm.out_symbol_index(row.out_symbol))
                got_osym = got >> (sbits + fsm.num_outputs)
                if got_osym != want_osym:
                    report.ok = False
                    report.mismatches.append(
                        f"{state}/{label}: output-symbol "
                        f"code {got_osym:b} != {want_osym:b}"
                    )
            if nxt != "*":
                want = enc.code_of(fsm.state_index(nxt))
                if got & ((1 << sbits) - 1) != want:
                    report.ok = False
                    report.mismatches.append(
                        f"{state}/{label}: next-state code "
                        f"{got & ((1 << sbits) - 1):0{sbits}b} != "
                        f"{want:0{sbits}b}"
                    )
            for j, ch in enumerate(outs):
                if ch == "-":
                    continue
                bit = (got >> (sbits + j)) & 1
                if bit != int(ch):
                    report.ok = False
                    report.mismatches.append(
                        f"{state}/{label}: output {j} "
                        f"is {bit}, expected {ch}"
                    )
    return report


def _narrow(pattern: str, rng: random.Random) -> str:
    """*pattern* with one of its don't-cares (if any) fixed."""
    free = [k for k, ch in enumerate(pattern) if ch == "-"]
    if not free:
        return pattern
    k = rng.choice(free)
    return pattern[:k] + rng.choice("01") + pattern[k + 1:]


def random_machine(rng: random.Random, name: str, n_in: int, n_sym: int = 0,
                   n_osym: int = 0, n_out: int = 2) -> FSM:
    """Per (symbol, input block) either one ``*`` row or one or two rows
    per state, some pairs unspecified, plus overlapping copies of rows;
    in random order."""
    states = [f"s{i}" for i in range(rng.randrange(3, 7))]
    symbols = [f"x{i}" for i in range(n_sym)]
    osyms = [f"o{i}" for i in range(n_osym)]
    split = min(n_in, 2)
    blocks = ["".join(b) + "-" * (n_in - split)
              for b in itertools.product("01", repeat=split)]

    def row(pattern, present, sym):
        return Transition(
            pattern, present,
            "*" if rng.random() < 0.1 else rng.choice(states),
            "".join(rng.choice("001-") for _ in range(n_out)),
            sym, rng.choice(osyms) if osyms else None)

    rows = []
    for sym in symbols or [None]:
        for blk in blocks:
            for present in ["*"] if rng.random() < 0.2 else states:
                if rng.random() < 0.15:
                    continue
                free = [k for k, ch in enumerate(blk) if ch == "-"]
                if free and rng.random() < 0.4:
                    k = rng.choice(free)
                    rows += [row(blk[:k] + v + blk[k + 1:], present, sym)
                             for v in "01"]
                else:
                    rows.append(row(blk, present, sym))
    # narrower copies of rows: overlaps that agree with the row they
    # overlap (so the encoded PLA implements both), checked once
    rows += [Transition(_narrow(t.inputs, rng), t.present, t.next, t.outputs,
                        t.symbol, t.out_symbol)
             for t in rng.sample(rows, len(rows) // 4)]
    rng.shuffle(rows)
    return FSM(name, n_in, n_out, states, rows, reset=states[0],
               symbolic_input_values=symbols,
               symbolic_output_values=osyms)


def machines():
    rng = random.Random(20)
    out = [benchmark(name) for name in ("lion", "bbtas", "dk27")]
    for i in range(3):
        out.append(random_machine(rng, f"bin{i}", rng.randrange(2, 6)))
        out.append(random_machine(rng, f"sym{i}", 0, n_sym=rng.randrange(3, 6)))
        out.append(random_machine(rng, f"mixed{i}", rng.randrange(1, 4),
                                  n_sym=rng.randrange(2, 4)))
        out.append(random_machine(rng, f"osym{i}", rng.randrange(1, 4),
                                  n_osym=3, n_out=1))
    out.append(random_machine(rng, "bin8", 8))
    out.append(random_machine(rng, "wide", 15))
    out.append(random_machine(rng, "widemixed", 16, n_sym=2))
    return out


ALGORITHMS = ("ihybrid", "igreedy", "iohybrid", "onehot", "random")


def mutants(fsm: FSM, r, rng: random.Random):
    """(machine, encoding, pla) triples: the result; covers with one
    cube dropped or one output bit flipped, each checked against the
    true on/dc/off, against the true sets with the original cube added
    to the don't-cares, and against an on-set equal to the mutant with
    and without the off-set (so the simulation runs too); two state
    codes swapped; one code wider than the PLA's state field; and the
    machine with a row that overlaps another and disagrees with it, put
    first (only it is checked there) or last (never checked)."""
    pla, enc = r.pla, r.state_encoding
    fmt = pla.cover.fmt
    cubes = pla.cover.cubes
    yield fsm, enc, pla
    i = rng.randrange(len(cubes))
    flipped = list(cubes)
    flipped[i] ^= 1 << (fmt.offsets[-1] + rng.randrange(fmt.parts[-1]))
    for bad in (cubes[:i] + cubes[i + 1:], flipped):
        cover = Cover(fmt, bad)
        for on, dc, off in ((pla.on, pla.dc, pla.off),
                            (pla.on, pla.dc + Cover(fmt, [cubes[i]]),
                             pla.off),
                            (cover, pla.dc, pla.off),
                            (cover, pla.dc, Cover(fmt))):
            yield fsm, enc, EncodedPLA(
                fsm=pla.fsm, state_bits=pla.state_bits,
                input_bits=pla.input_bits, cover=cover, on=on, dc=dc,
                off=off, out_bits=pla.out_bits)
    a, b = rng.sample(range(enc.n), 2)
    codes = list(enc.codes)
    codes[a], codes[b] = codes[b], codes[a]
    yield fsm, Encoding(enc.nbits, codes), pla
    codes = list(enc.codes)
    codes[a] |= 1 << pla.state_bits
    yield fsm, Encoding(enc.nbits + 1, codes), pla
    t = rng.choice(fsm.transitions)
    shadow = Transition(
        _narrow(t.inputs, rng), t.present, rng.choice(fsm.states),
        "".join(rng.choice("01-") for _ in t.outputs), t.symbol,
        rng.choice(fsm.symbolic_output_values) if t.out_symbol else None)
    for rows in ([shadow] + fsm.transitions, fsm.transitions + [shadow]):
        yield FSM(fsm.name, fsm.num_inputs, fsm.num_outputs, fsm.states,
                  rows, reset=fsm.reset,
                  symbolic_input_values=fsm.symbolic_input_values,
                  symbolic_output_values=fsm.symbolic_output_values), \
            enc, pla


@pytest.mark.parametrize("fsm", machines(), ids=lambda m: m.name)
def test_gate_equals_scalar_reference(fsm):
    rng = random.Random(fsm.name)
    failing = 0
    for algorithm in ALGORITHMS:
        r = encode_fsm(fsm, algorithm, seed=1, cache="off")
        for machine, enc, pla in mutants(fsm, r, rng):
            for max_pairs in (1, 3, 10, 20_000):
                args = (machine, enc, pla, r.symbol_encoding,
                        r.out_symbol_encoding, max_pairs)
                got, want = verify_encoded_machine(*args), reference(*args)
                assert (got.ok, got.checked_pairs, got.mismatches) == \
                    (want.ok, want.checked_pairs, want.mismatches), \
                    (algorithm, max_pairs)
                failing += not want.ok
    assert failing  # the mutants do break the gate
