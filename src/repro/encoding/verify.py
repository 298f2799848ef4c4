"""Independent verification of encoding results.

Everything the benchmarks report is backed by these checks: an encoded,
re-minimized PLA must implement exactly the behaviour of the original
state transition table.  The checker evaluates the minimized cover on
every specified (input, state) pair and compares next-state codes and
outputs against the symbolic machine.

Both checks work on point sets: one int with a bit per point.  The
simulation's points are (state, input vector) pairs, states outermost;
the vectors are every binary input vector (past 14 bits, the ones the
rows induce) under every symbolic-input value.  The cover's value in
each output column, each row's first-match pairs and the failing pairs
are a few such ints, built with a handful of int operations per cube
and per row instead of one cover evaluation per pair.  PLAs of at most
2^14 input points check the espresso contract per output column on
point sets too; wider ones call
:func:`repro.logic.verify.verify_minimization`.  Neither imports
:mod:`repro.logic.minterms`, the minterm-set espresso they check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.encoding.base import Encoding
from repro.errors import ConstraintError
from repro.eval.instantiate import EncodedPLA
from repro.fsm.machine import FSM
from repro.logic.verify import verify_minimization

# widest binary input space swept exhaustively; beyond this the checker
# samples concrete vectors from the specified rows instead.  The same
# bound picks the vector-set contract check over the URP one.
_EXHAUSTIVE_INPUT_BITS = 14


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_encoded_machine`."""

    ok: bool
    checked_pairs: int
    mismatches: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _bit_set(q: int, n: int) -> int:
    """The vectors ``t < 2^n`` whose bit *q* is 1."""
    half = 1 << q
    period = (1 << 2 * half) - 1
    return (period ^ ((1 << half) - 1)) * (((1 << (1 << n)) - 1) // period)


def _cube_sets(cubes, lits: list, full: int, memo: dict) -> list:
    """(vector set, rest of the cube) for each cube.

    The set is that of the cube's leading binary variables: ``lits[v]``
    maps variable *v*'s 2-bit field (empty, 0, 1, don't care) to the
    vectors that field admits.  *memo* shares sets between cubes with
    the same leading fields.
    """
    width = 2 * len(lits)
    low = (1 << width) - 1
    out = []
    for cube in cubes:
        key = cube & low
        s = memo.get(key)
        if s is None:
            s = full
            for v, lit in enumerate(lits):
                s &= lit[key >> 2 * v & 3]
            memo[key] = s
        out.append((s, cube >> width))
    return out


def _ones(x: int) -> List[int]:
    """Positions of the 1 bits of *x*, ascending."""
    return [i for i, ch in enumerate(reversed(f"{x:b}")) if ch == "1"]


def _spread(x: int, width: int, memo: dict) -> int:
    """A 1 at the start of each *width*-bit block that *x* selects:
    multiplying a set by it copies the set into those blocks."""
    if x not in memo:
        memo[x] = sum(1 << i * width for i in _ones(x))
    return memo[x]


def _contract_holds(pla: EncodedPLA) -> bool:
    """The espresso contract, per output column on point sets."""
    fmt = pla.cover.fmt
    n = fmt.num_vars - 1
    off = pla.off if len(pla.off) else None
    if n > _EXHAUSTIVE_INPUT_BITS or off is None:
        return verify_minimization(pla.cover, pla.on, pla.dc, off)
    full = (1 << (1 << n)) - 1
    lits = [(0, full ^ pos, pos, full)
            for pos in (_bit_set(q, n) for q in range(n))]
    memo: dict = {}
    r, on, dc, no = ([0] * fmt.parts[-1] for _ in range(4))
    for cols, cover in ((r, pla.cover), (on, pla.on), (dc, pla.dc),
                        (no, off)):
        by_out: dict = {}  # output part -> union of its cubes' sets
        for s, out in _cube_sets(cover.cubes, lits, full, memo):
            by_out[out] = by_out.get(out, 0) | s
        for out, s in by_out.items():
            for j in _ones(out):
                cols[j] |= s
    return not any(on_j & ~(r_j | dc_j) or r_j & no_j
                   for r_j, on_j, dc_j, no_j in zip(r, on, dc, no))


def verify_encoded_machine(
    fsm: FSM,
    enc: Encoding,
    pla: EncodedPLA,
    symbol_enc: Optional[Encoding] = None,
    out_symbol_enc: Optional[Encoding] = None,
    max_pairs: int = 20_000,
) -> VerificationReport:
    """Check the encoded PLA simulates the symbolic machine exactly.

    Also re-checks the espresso contract on the minimized cover.
    Unspecified (state, input) pairs are skipped — any behaviour is
    legal there.  ``max_pairs`` bounds the exhaustive sweep for very
    wide machines (pairs beyond the bound are not checked; states are
    swept in order and vectors in ascending order).
    """
    report = VerificationReport(ok=True, checked_pairs=0)
    if not _contract_holds(pla):
        report.ok = False
        report.mismatches.append("minimized cover violates espresso contract")
        return report

    if fsm.has_symbolic_input and symbol_enc is None:
        raise ConstraintError("symbolic machine needs its symbol encoding")
    n = fsm.num_inputs
    if n <= _EXHAUSTIVE_INPUT_BITS:
        vectors = None
        nvec = 1 << n
        pos = [_bit_set(n - 1 - k, n) for k in range(n)]
    else:
        # too wide to sweep exhaustively: check concrete vectors drawn
        # from the specified rows themselves (each row's input cube
        # with the don't-cares forced all-0 and all-1)
        vectors = list(dict.fromkeys(t.inputs.replace("-", fill)
                                     for t in fsm.transitions
                                     for fill in "01"))
        nvec = len(vectors)
        pos = [sum(1 << v for v, vec in enumerate(vectors) if vec[k] == "1")
               for k in range(n)]
    if fsm.has_symbolic_output and out_symbol_enc is None:
        raise ConstraintError(
            "machine with symbolic output needs its encoding")

    # vector t is binary vector t % nvec under symbol value t // nvec
    symbols = fsm.symbolic_input_values or [None]
    block = (1 << nvec) - 1
    full = (1 << nvec * len(symbols)) - 1
    rep = full // block
    lits = [(0, full ^ p * rep, p * rep, full) for p in pos]
    if fsm.has_symbolic_input:
        sym_codes = [symbol_enc.code_of(i) for i in range(len(symbols))]
        for b in range(symbol_enc.nbits):
            p = sum(block << i * nvec
                    for i, c in enumerate(sym_codes) if c >> b & 1)
            lits.append((0, full ^ p, p, full))

    # pair p is state number p // width under vector p % width, so
    # ascending pairs sweep states in order and vectors in order
    sbits = pla.state_bits
    ncols = pla.cover.fmt.parts[-1]
    width = full.bit_length()
    codes = [enc.code_of(i) for i in range(fsm.num_states)]
    all_states = (1 << fsm.num_states) - 1
    state_lits = []  # the same for state code bits, over state numbers
    for b in range(sbits):
        p = sum(1 << i for i, c in enumerate(codes) if c >> b & 1)
        state_lits.append((0, all_states ^ p, p, all_states))
    spread: dict = {}
    cols = [0] * ncols  # per output column, the pairs the cover asserts
    sets = _cube_sets(pla.cover.cubes, lits, full, {})
    for (s, _), (states, out) in zip(sets, _cube_sets(
            [rest for _, rest in sets], state_lits, all_states, {})):
        if s and states:
            s *= _spread(states, width, spread)
            for i in _ones(out):
                cols[i] |= s

    claimed = 0
    matched = []  # (row, the pairs it is the first match of)
    inputs: dict = {}  # (input pattern, symbol) -> its vectors
    wants: dict = {}  # (outputs, next state, output symbol) -> pairs
    for t in fsm.transitions:
        s = inputs.get((t.inputs, t.symbol))
        if s is None:
            s = full if t.symbol is None else \
                block << fsm.symbol_index(t.symbol) * nvec
            for k, ch in enumerate(t.inputs):
                if ch != "-":
                    s &= lits[k][1 if ch == "0" else 2]
            inputs[t.inputs, t.symbol] = s
        s = s * _spread(all_states, width, spread) if t.present == "*" \
            else s << fsm.state_index(t.present) * width
        first = s & ~claimed
        if first:
            claimed |= s
            matched.append((t, first))
            key = (t.outputs, t.next, t.out_symbol)
            wants[key] = wants.get(key, 0) | first

    bad = 0
    base = sbits + fsm.num_outputs
    for (outputs, nxt, out_symbol), first in wants.items():
        # the output columns these rows specify, and their values
        care = val = 0
        for j, ch in enumerate(outputs):
            if ch != "-":
                care |= 1 << sbits + j
                val |= (ch == "1") << sbits + j
        wide = 0  # code bits beyond their columns, which no pair meets
        if nxt != "*":
            code = enc.code_of(fsm.state_index(nxt))
            care |= (1 << sbits) - 1
            val |= code & (1 << sbits) - 1
            wide |= code >> sbits
        if out_symbol_enc is not None:
            code = out_symbol_enc.code_of(fsm.out_symbol_index(out_symbol))
            care |= (1 << ncols) - (1 << base)
            val |= code << base
            wide |= code << base >> ncols
        if wide:
            bad |= first
        for i in _ones(care):
            bad |= first & (~cols[i] if val >> i & 1 else cols[i])

    if claimed.bit_count() > max_pairs:  # keep the first max_pairs
        claimed &= (1 << _ones(claimed)[max(max_pairs, 0)]) - 1
    report.checked_pairs = claimed.bit_count()
    bad &= claimed
    if bad:
        row_of = {p: t for t, first in matched for p in _ones(first & bad)}
        col_bits = [f"{c:0{width * fsm.num_states}b}"[::-1] for c in cols]
        for p in sorted(row_of):
            got = sum(1 << i for i, c in enumerate(col_bits) if c[p] == "1")
            _mismatches(report, fsm, enc, out_symbol_enc, sbits,
                        fsm.states[p // width], row_of[p], got,
                        _label(vectors, n, nvec, symbols, p % width))
    return report


def _label(vectors, n, nvec, symbols, v) -> str:
    """How a mismatch names vector *v*: its bits, symbol or both."""
    bits = vectors[v % nvec] if vectors is not None \
        else format(v % nvec, f"0{n}b") if n else ""
    symbol = symbols[v // nvec]
    return f"{symbol} {bits}" if symbol is not None and bits \
        else bits or symbol


def _mismatches(report, fsm, enc, out_symbol_enc, sbits, state, row, got,
                label) -> None:
    """Describe every check one (state, vector) pair fails."""
    report.ok = False
    if out_symbol_enc is not None:
        want_osym = out_symbol_enc.code_of(fsm.out_symbol_index(row.out_symbol))
        got_osym = got >> (sbits + fsm.num_outputs)
        if got_osym != want_osym:
            report.mismatches.append(
                f"{state}/{label}: output-symbol code "
                f"{got_osym:b} != {want_osym:b}")
    if row.next != "*":
        want = enc.code_of(fsm.state_index(row.next))
        if got & ((1 << sbits) - 1) != want:
            report.mismatches.append(
                f"{state}/{label}: next-state code "
                f"{got & ((1 << sbits) - 1):0{sbits}b} != {want:0{sbits}b}")
    for j, ch in enumerate(row.outputs):
        if ch != "-" and (got >> (sbits + j)) & 1 != int(ch):
            report.mismatches.append(
                f"{state}/{label}: output {j} is "
                f"{(got >> (sbits + j)) & 1}, expected {ch}")
