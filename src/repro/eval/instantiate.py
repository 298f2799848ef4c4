"""Instantiate an encoding: encoded PLA cover, minimization, final area.

Given state (and optional symbolic-input) codes, the original state
transition table is translated into a binary multi-output cover —
present-state code bits become PLA inputs, next-state code bits join the
outputs — the unused code points are added to the don't-care set, and
the cover is re-minimized with the espresso substrate, exactly as the
paper's evaluation flow (encode, then "running ESPRESSO again to obtain
the final area of the encoded FSM").

The cover is built in one pass of int arithmetic (DESIGN §6 item 19).
Every binary variable is a 2-bit field (``01`` = 0, ``10`` = 1, ``11``
= don't care), so a row's cube is the OR of field ints computed once
per call: its input pattern, the code of its symbolic input and present
state, and its output plane shifted past them.  The unused codes come
from splitting the sorted code list on its top bit until a half is all
unused or all used (:func:`_unused_code_fields`), not from a complement
of the used codes.  Those cubes are disjoint and differ in shape from a
complement's, but the dc cover is the same function, and the function
is all that espresso and the verification gate read of it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.encoding.base import Encoding
from repro.eval.area import pla_area
from repro.fsm.machine import FSM
from repro.logic.cover import Cover
from repro.logic.cube import Format
from repro.logic.espresso import espresso
from repro.perf.budget import Budget
from repro.testing import faults

# a 0/1/- pattern read as base-4 digits gives its 2-bit fields; read as
# base-2 digits through these tables, its on, dc and off columns
_FIELD = str.maketrans("01-", "123")
_ON = str.maketrans("01-", "010")
_DC = str.maketrans("01-", "001")
_OFF = str.maketrans("01-", "100")


@dataclass
class EncodedPLA:
    """The minimized two-level implementation of an encoded FSM."""

    fsm: FSM
    state_bits: int
    input_bits: int  # binary primary inputs + encoded symbolic-input bits
    cover: Cover
    on: Cover
    dc: Cover
    off: Cover
    out_bits: int = 0  # encoded symbolic-output bits

    @property
    def num_cubes(self) -> int:
        return len(self.cover)

    @property
    def num_output_columns(self) -> int:
        return self.fsm.num_outputs + self.out_bits

    @property
    def area(self) -> int:
        return pla_area(self.input_bits, self.state_bits,
                        self.num_output_columns, self.num_cubes)


def _field_ints(codes: Sequence[int], bits: int) -> List[int]:
    """The ``bits`` binary fields of each code as one int, bit 0 lowest.

    ``int(format(c, "b"), 4)`` puts code bit ``k`` at bit ``2k``;
    adding a ``01`` per field turns it into ``10`` where the bit is set.
    """
    ones = int("1" * bits, 4) if bits else 0
    return [ones + int(format(c, "b"), 4) for c in codes]


def _unused_code_fields(codes: Sequence[int], bits: int) -> List[int]:
    """Disjoint cubes (as field ints) whose union is the unused codes.

    The code range is split on its top bit, lower half first, until a
    half holds no used code (one cube: its fixed prefix, the rest
    don't care) or nothing but used codes (no cube).
    """
    if not bits:
        return []
    used = sorted(set(codes))
    ones = int("1" * bits, 4)
    out: List[int] = []
    # (first index into used, end index, lowest code, free low bits)
    stack = [(0, len(used), 0, bits)]
    while stack:
        lo, hi, base, free = stack.pop()
        if lo == hi:
            out.append(ones + int(format(base, "b"), 4)
                       | ((1 << 2 * free) - 1))
        elif hi - lo < 1 << free:
            half = base | 1 << (free - 1)
            mid = bisect_left(used, half, lo, hi)
            stack.append((mid, hi, half, free - 1))
            stack.append((lo, mid, base, free - 1))
    return out


def _output_bits(pattern: str) -> Tuple[int, int, int]:
    """The on, dc and off columns of a 0/1/- output pattern, bit 0 first."""
    if not pattern:
        return 0, 0, 0
    rev = pattern[::-1]
    return (int(rev.translate(_ON), 2), int(rev.translate(_DC), 2),
            int(rev.translate(_OFF), 2))


def instantiate(
    fsm: FSM,
    enc: Encoding,
    symbol_enc: Optional[Encoding] = None,
    out_symbol_enc: Optional[Encoding] = None,
) -> tuple:
    """Encoded (on, dc, off) covers plus layout counts.

    Returns ``(on, dc, off, input_bits, state_bits, out_bits)``.  Rows
    are taken in order; each adds its on, dc and off cube when that
    part of its output plane is non-empty.  The dc cover then gets the
    unused state codes and the unused symbolic-input codes, every
    output don't care.
    """
    if enc.n != fsm.num_states:
        raise ValueError("encoding size does not match the machine")
    if fsm.has_symbolic_input:
        if symbol_enc is None:
            raise ValueError(f"{fsm.name} needs a symbolic-input encoding")
        if symbol_enc.n != len(fsm.symbolic_input_values):
            raise ValueError("symbol encoding size mismatch")
    if fsm.has_symbolic_output:
        if out_symbol_enc is None:
            raise ValueError(f"{fsm.name} needs a symbolic-output encoding")
        if out_symbol_enc.n != len(fsm.symbolic_output_values):
            raise ValueError("output-symbol encoding size mismatch")
    sbits = enc.nbits
    ibits = symbol_enc.nbits if symbol_enc is not None else 0
    obits = out_symbol_enc.nbits if out_symbol_enc is not None else 0
    n_in = fsm.num_inputs
    n_out = fsm.num_outputs
    fmt = Format([2] * (n_in + ibits + sbits) + [sbits + n_out + obits])
    sym_at = 2 * n_in
    state_at = 2 * (n_in + ibits)
    out_at = 2 * (n_in + ibits + sbits)

    full_state = (1 << sbits) - 1
    state_field: Dict[str, int] = {
        s: f << state_at
        for s, f in zip(fsm.states, _field_ints(enc.codes, sbits))}
    state_field["*"] = ((1 << 2 * sbits) - 1) << state_at
    next_code: Dict[str, int] = dict(zip(fsm.states, enc.codes))
    sym_field: Dict[Optional[str], int] = {None: 0}
    if symbol_enc is not None:
        sym_field = {
            s: f << sym_at for s, f in zip(
                fsm.symbolic_input_values,
                _field_ints(symbol_enc.codes, ibits))}
    out_sym: Dict[Optional[str], Tuple[int, int]] = {None: (0, 0)}
    if out_symbol_enc is not None:
        base = sbits + n_out
        full_sym = (1 << obits) - 1
        out_sym = {s: (c << base, (full_sym & ~c) << base) for s, c in zip(
            fsm.symbolic_output_values, out_symbol_enc.codes)}

    on = Cover(fmt)
    dc = Cover(fmt)
    off = Cover(fmt)
    on_cubes = on.cubes
    dc_cubes = dc.cubes
    off_cubes = off.cubes
    # every row's fields are non-empty, so no cube here is: append to
    # the lists directly
    for t in fsm.transitions:
        pattern = t.inputs
        cube = ((int(pattern[::-1].translate(_FIELD), 4) if pattern else 0)
                | sym_field[t.symbol] | state_field[t.present])
        on_out, dc_out, off_out = _output_bits(t.outputs)
        on_out <<= sbits
        dc_out <<= sbits
        off_out <<= sbits
        if t.next == "*":
            dc_out |= full_state
        else:
            ncode = next_code[t.next]
            on_out |= ncode
            off_out |= full_state & ~ncode
        sym_on, sym_off = out_sym[t.out_symbol]
        on_out |= sym_on
        off_out |= sym_off
        if on_out:
            on_cubes.append(cube | on_out << out_at)
        if dc_out:
            dc_cubes.append(cube | dc_out << out_at)
        if off_out:
            off_cubes.append(cube | off_out << out_at)

    # unused state codes (and unused symbol codes) are global don't cares
    all_outputs = ((1 << (sbits + n_out + obits)) - 1) << out_at
    free_inputs = (1 << 2 * (n_in + ibits)) - 1
    for f in _unused_code_fields(enc.codes, sbits):
        dc_cubes.append(free_inputs | f << state_at | all_outputs)
    if symbol_enc is not None:
        free_rest = (1 << sym_at) - 1 | state_field["*"] | all_outputs
        for f in _unused_code_fields(symbol_enc.codes, ibits):
            dc_cubes.append(free_rest | f << sym_at)
    return on, dc, off, n_in + ibits, sbits, obits


def evaluate_encoding(
    fsm: FSM,
    enc: Encoding,
    symbol_enc: Optional[Encoding] = None,
    out_symbol_enc: Optional[Encoding] = None,
    effort: str = "full",
    minimize: bool = True,
    budget: Optional[Budget] = None,
) -> EncodedPLA:
    """Encode, re-minimize, and measure the final PLA.

    ``minimize=False`` skips the espresso pass and reports the raw
    encoded on-cover — a valid (just larger) implementation, used by
    the driver as the degraded path when re-minimization fails.
    """
    on, dc, off, input_bits, state_bits, out_bits = instantiate(
        fsm, enc, symbol_enc, out_symbol_enc)
    if minimize:
        faults.trip("minimize", machine=fsm.name)
        minimized = espresso(on, dc=dc, off=off if len(off) else None,
                             effort=effort, budget=budget)
    else:
        minimized = on.copy()
    return EncodedPLA(
        fsm=fsm,
        state_bits=state_bits,
        input_bits=input_bits,
        cover=minimized,
        on=on,
        dc=dc,
        off=off,
        out_bits=out_bits,
    )
