"""Shared encoding types and constraint-satisfaction checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.constraints.faces import Face
from repro.constraints.input_constraints import ConstraintSet
from repro.errors import ConstraintError, EncodingInfeasible


@dataclass
class Encoding:
    """An assignment of distinct ``nbits``-wide codes to ``n`` symbols."""

    nbits: int
    codes: List[int]  # index = symbol, value = code

    def __post_init__(self) -> None:
        limit = 1 << self.nbits
        for c in self.codes:
            if c < 0 or c >= limit:
                raise ConstraintError(
                    f"code {c:#x} does not fit in {self.nbits} bits")
        if len(set(self.codes)) != len(self.codes):
            raise ConstraintError("codes must be injective")

    @property
    def n(self) -> int:
        return len(self.codes)

    def code_of(self, symbol: int) -> int:
        return self.codes[symbol]

    def as_bits(self, symbol: int) -> str:
        return format(self.codes[symbol], f"0{self.nbits}b")

    def unused_codes(self) -> List[int]:
        used = set(self.codes)
        return [c for c in range(1 << self.nbits) if c not in used]

    def widen(self, new_bits: Iterable[int]) -> "Encoding":
        """Append one MSB per symbol (used by ``project_code``)."""
        bits = list(new_bits)
        if len(bits) != self.n:
            raise ConstraintError("need one new bit per symbol")
        return Encoding(
            self.nbits + 1,
            [c | (b << self.nbits) for c, b in zip(self.codes, bits)],
        )

    def __repr__(self) -> str:
        codes = ", ".join(self.as_bits(i) for i in range(self.n))
        return f"Encoding({self.nbits} bits: {codes})"


def constraint_satisfied(enc: Encoding, mask: int) -> bool:
    """Face-embedding check for one constraint against final codes.

    The constraint is satisfied when the smallest face spanning the
    member codes (their supercube) contains no non-member code.
    """
    members = [enc.codes[i] for i in range(enc.n) if (mask >> i) & 1]
    if len(members) <= 1:
        return True
    face = Face.spanning(enc.nbits, members)
    for i in range(enc.n):
        if not (mask >> i) & 1 and face.contains_code(enc.codes[i]):
            return False
    return True


def satisfied_masks(enc: Encoding, masks: Iterable[int]) -> List[int]:
    """The subset of constraints satisfied by *enc*."""
    return [m for m in masks if constraint_satisfied(enc, m)]


def satisfied_weight(enc: Encoding, cs: ConstraintSet) -> int:
    """Total weight of the satisfied constraints of *cs*."""
    return sum(w for m, w in cs.weights.items() if constraint_satisfied(enc, m))


def counting_sequence_code(n: int, nbits: int) -> Encoding:
    """The trivial 0, 1, 2, ... encoding (used as a deterministic fallback)."""
    if (1 << nbits) < n:
        raise EncodingInfeasible("not enough codes")
    return Encoding(nbits, list(range(n)))
