"""Explicit minterm sets for formats with a small minterm space.

A format with parts ``p_0 .. p_{n-1}`` spans ``p_0 * ... * p_{n-1}``
minterms, one value per variable, the multi-output part counting as one
more variable.  A minterm is numbered in mixed radix, variable 0 the
least significant digit: value ``j`` of variable ``v`` adds
``j * stride_v`` with ``stride_v = p_0 * ... * p_{v-1}``.  A *minterm
set* is one Python int with bit ``i`` set when minterm ``i`` is in the
set, so union, intersection and inclusion of whole covers are single
big-int operations instead of tautology recursions.

The set of a cube is the AND of one *field set* per variable: the
minterms whose digit ``v`` lies in the cube's field, the OR of the
``value_sets`` of its values.  The minterms that raising value ``j`` of
variable ``v`` adds to a cube are the ones with digit ``v = j`` inside
the field sets of every other variable, so espresso's EXPAND tests a
raise with one AND against ``value_sets[b]``; a subcube's set is its
cube's set ANDed with the field sets that narrow
(:meth:`Space.subcube_set`).  Only ANDs and ORs are used on sets:
shifting a big int costs several ANDs.

Spaces are built on first use and cached by ``Format.parts``; nothing
is built at import.  The espresso dispatch decides which formats are
small enough (:func:`repro.logic.espresso._space`).
"""

from __future__ import annotations

from math import prod
from typing import Dict, List, Sequence, Tuple

from repro.logic.cube import Format

#: cached spaces; flushed wholesale when full (a process sees few formats)
_SPACES_MAX = 16
#: per-space bound on memoized cube sets, in set bits, and in entries
_MEMO_BITS = 1 << 23
_MEMO_MAX = 4096

_spaces: Dict[Tuple[int, ...], "Space"] = {}


def size(fmt: Format) -> int:
    """Number of minterms of *fmt*: the product of its part counts."""
    return prod(fmt.parts)


def space(fmt: Format) -> "Space":
    """The minterm space of *fmt*, built on first use."""
    sp = _spaces.get(fmt.parts)
    if sp is None:
        if len(_spaces) >= _SPACES_MAX:
            _spaces.clear()
        sp = _spaces[fmt.parts] = Space(fmt)
    return sp


class Space:
    """Minterm tables of one format.

    ``value_sets[b]`` is the set of minterms whose digit in the variable
    of cube bit ``b`` is that bit's value.  The set of a field is the OR
    of its bits' value sets, memoized per variable keyed by the masked
    field; cube sets are memoized too, as espresso passes revisit the
    same cubes.
    """

    __slots__ = ("universe", "value_sets", "_vars", "_memo", "_memo_max")

    def __init__(self, fmt: Format) -> None:
        total = size(fmt)
        self.universe = (1 << total) - 1
        value_sets: List[int] = []
        stride = 1
        for p in fmt.parts:
            period = stride * p
            for j in range(p):
                # the run of value j in one period, repeated by doubling
                # (a multiplication by a big repeat pattern is quadratic)
                out, width = ((1 << stride) - 1) << (j * stride), period
                while width < total:
                    out |= out << width
                    width <<= 1
                value_sets.append(out & self.universe)
            stride = period
        self.value_sets: Tuple[int, ...] = tuple(value_sets)
        # (mask, masked field -> field set) per variable
        self._vars: Tuple[Tuple[int, Dict[int, int]], ...] = tuple(
            (m, {m: self.universe}) for m in fmt.masks)
        self._memo: Dict[int, int] = {}
        self._memo_max = min(_MEMO_MAX, _MEMO_BITS // total)

    def field_set(self, var: int, field: int) -> int:
        """Minterms whose digit *var* lies in *field* (masked in place)."""
        memo = self._vars[var][1]
        out = memo.get(field)
        if out is None:
            out = memo[field] = self._or_values(field)
        return out

    def field_sets(self, cube: int) -> List[int]:
        """The field set of every variable of *cube*."""
        out = []
        for m, memo in self._vars:
            f = cube & m
            t = memo.get(f)
            if t is None:
                t = memo[f] = self._or_values(f)
            out.append(t)
        return out

    def _or_values(self, field: int) -> int:
        out = 0
        while field:
            low = field & -field
            out |= self.value_sets[low.bit_length() - 1]
            field ^= low
        return out

    def cube_set(self, cube: int) -> int:
        """Minterms of *cube* (0 when some field is empty)."""
        s = self._memo.get(cube)
        if s is None:
            s = self.universe
            for m, memo in self._vars:
                f = cube & m
                t = memo.get(f)
                if t is None:
                    t = memo[f] = self._or_values(f)
                s &= t
            if len(self._memo) >= self._memo_max:
                self._memo.clear()
            self._memo[cube] = s
        return s

    def cover_set(self, cubes: Sequence[int]) -> int:
        """Minterms of the union of *cubes*."""
        out = 0
        for c in cubes:
            out |= self.cube_set(c)
        return out

    def subcube_set(self, s: int, cube: int, sub: int) -> int:
        """Minterms of *sub*, a non-empty subcube of *cube*, from the set
        *s* of *cube*: only the fields that narrow are ANDed in."""
        for v, (m, _) in enumerate(self._vars):
            if (cube ^ sub) & m:
                s &= self.field_set(v, sub & m)
        return s

    def supercube(self, u: int, cube: int) -> int:
        """Smallest cube containing the minterm set *u*, given ``u ⊆ cube``.

        Keeps the bits of *cube* whose value some minterm of *u* takes;
        0 when *u* is empty.
        """
        if not u:
            return 0
        value_sets = self.value_sets
        out = 0
        rest = cube
        while rest:
            low = rest & -rest
            if u & value_sets[low.bit_length() - 1]:
                out |= low
            rest ^= low
        return out
