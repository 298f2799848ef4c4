"""Positional-cube notation over mixed binary / multiple-valued variables.

A *format* describes the layout of a cube: an ordered list of variables,
each with a number of *parts* (positions).  A binary input variable has
two parts (``01`` = value 0, ``10`` = value 1, ``11`` = don't care); a
multiple-valued variable with ``n`` values has ``n`` parts; the
multi-output part of a function is treated as one more multiple-valued
variable with one part per output, following the classic ESPRESSO-MV
convention.

A cube is a plain Python ``int``: the concatenation of all part fields,
variable 0 in the least significant bits.  All cube algebra (intersection,
containment, cofactor, distance, supercube) is integer bitmask
arithmetic, which keeps the pure-Python minimizer fast enough for the
benchmark machines of the NOVA paper.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


class Format:
    """Bit layout of positional cubes for a fixed list of variables.

    Parameters
    ----------
    parts:
        Number of parts of each variable, in order.  Each entry must be
        at least 1 (an output variable may have a single part).

    Besides the per-variable ``offsets`` and ``masks``, a format keeps
    ``bit_var`` (the variable of every absolute bit position),
    ``binary_lo`` (the lowest bit of every 2-part variable) and
    ``mv_masks`` (the masks of all other variables), which let the
    emptiness tests check every binary field in one step.
    """

    __slots__ = (
        "parts",
        "num_vars",
        "offsets",
        "masks",
        "width",
        "universe",
        "bit_var",
        "binary_lo",
        "mv_masks",
    )

    def __init__(self, parts: Sequence[int]):
        if not parts:
            raise ValueError("a format needs at least one variable")
        for p in parts:
            if p < 1:
                raise ValueError(f"variable must have >= 1 part, got {p}")
        self.parts: Tuple[int, ...] = tuple(parts)
        self.num_vars = len(self.parts)
        offsets: List[int] = []
        masks: List[int] = []
        off = 0
        for p in self.parts:
            offsets.append(off)
            masks.append(((1 << p) - 1) << off)
            off += p
        self.offsets: Tuple[int, ...] = tuple(offsets)
        self.masks: Tuple[int, ...] = tuple(masks)
        self.width = off
        self.universe = (1 << off) - 1
        # map from absolute bit index to its variable
        bit_var = []
        for v, p in enumerate(self.parts):
            bit_var.extend([v] * p)
        self.bit_var: Tuple[int, ...] = tuple(bit_var)
        # bit ``offset`` of ``x | x >> 1`` is set exactly when that
        # 2-part field of ``x`` is non-empty, so
        # ``(x | x >> 1) & binary_lo == binary_lo`` says no binary field
        # of ``x`` is empty; only the ``mv_masks`` fields need a loop
        self.binary_lo = sum(1 << o for o, p in zip(offsets, self.parts)
                             if p == 2)
        self.mv_masks: Tuple[int, ...] = tuple(
            m for m, p in zip(masks, self.parts) if p != 2)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def cube_from_fields(self, fields: Sequence[int]) -> int:
        """Build a cube from one integer field per variable."""
        if len(fields) != self.num_vars:
            raise ValueError("wrong number of fields")
        cube = 0
        for v, f in enumerate(fields):
            if f < 0 or f >= (1 << self.parts[v]):
                raise ValueError(f"field {f:#x} out of range for variable {v}")
            cube |= f << self.offsets[v]
        return cube

    def _check_var(self, var: int) -> int:
        """Validate a variable index; negatives never alias from the end.

        Python-style negative indexing would silently address the wrong
        part field in the mask arithmetic of :meth:`with_field` (the
        masks are positional, not sliceable), so any out-of-range index
        — negative or too large — is rejected with the variable named.
        """
        if not 0 <= var < self.num_vars:
            raise ValueError(
                f"variable index {var} out of range for format with "
                f"{self.num_vars} variables (parts={self.parts})")
        return var

    def literal(self, var: int, values: Iterable[int]) -> int:
        """Cube that is full everywhere except *var*, restricted to *values*."""
        self._check_var(var)
        field = 0
        for val in values:
            if val < 0 or val >= self.parts[var]:
                raise ValueError(f"value {val} out of range for variable {var}")
            field |= 1 << val
        return (self.universe & ~self.masks[var]) | (field << self.offsets[var])

    def field(self, cube: int, var: int) -> int:
        """Extract the part field of *var* from *cube* (right-aligned)."""
        self._check_var(var)
        return (cube & self.masks[var]) >> self.offsets[var]

    def with_field(self, cube: int, var: int, field: int) -> int:
        """Return *cube* with the field of *var* replaced."""
        self._check_var(var)
        return (cube & ~self.masks[var]) | (field << self.offsets[var])

    def var_of_bit(self, bit: int) -> int:
        """Variable that absolute bit position *bit* belongs to."""
        return self.bit_var[bit]

    # ------------------------------------------------------------------
    # cube algebra
    # ------------------------------------------------------------------
    def is_empty(self, cube: int) -> bool:
        """A cube is empty when some variable's field is all zero."""
        lo = self.binary_lo
        if (cube | cube >> 1) & lo != lo:
            return True
        for m in self.mv_masks:
            if not cube & m:
                return True
        return False

    def intersect(self, a: int, b: int) -> int:
        """Intersection of two cubes; may be empty (check ``is_empty``)."""
        return a & b

    def intersects(self, a: int, b: int) -> bool:
        """True when the two cubes share at least one minterm."""
        return not self.is_empty(a & b)

    def contains(self, outer: int, inner: int) -> bool:
        """True when cube *outer* contains cube *inner* (single cube)."""
        return inner & ~outer == 0

    def distance(self, a: int, b: int) -> int:
        """Number of variables where the two cubes have empty intersection."""
        c = a & b
        d = 0
        for m in self.masks:
            if not c & m:
                d += 1
        return d

    def supercube(self, a: int, b: int) -> int:
        """Smallest cube containing both cubes."""
        return a | b

    def cofactor(self, cube: int, against: int) -> int:
        """Shannon cofactor of *cube* with respect to *against*.

        Returns 0 (the canonical empty cube) when the two cubes do not
        intersect; otherwise each field becomes
        ``cube_field | ~against_field``.
        """
        if not self.intersects(cube, against):
            return 0
        return cube | (self.universe & ~against)

    def consensus(self, a: int, b: int) -> int:
        """Consensus (generalized) of two cubes, 0 when distance > 1."""
        d = self.distance(a, b)
        if d > 1:
            return 0
        c = a & b
        if d == 0:
            return c
        # raise the single conflicting variable to the union of the parts
        for v, m in enumerate(self.masks):
            if not c & m:
                return (c & ~m) | ((a | b) & m)
        return c  # unreachable

    def minterm_count(self, cube: int) -> int:
        """Number of minterms in the cube (product of field popcounts)."""
        # popcount is shift-invariant, so masking beats extracting the
        # field; this is the sort key of expand/reduce/containment
        n = 1
        for m in self.masks:
            n *= (cube & m).bit_count()
        return n

    def full_vars(self, cube: int) -> int:
        """Count of variables whose field is completely don't care."""
        n = 0
        for m in self.masks:
            if cube & m == m:
                n += 1
        return n

    # ------------------------------------------------------------------
    # text I/O (espresso-like, mostly for debugging and tests)
    # ------------------------------------------------------------------
    def cube_to_str(self, cube: int) -> str:
        """Render a cube: binary vars as 0/1/-, others as bit strings."""
        out = []
        for v, p in enumerate(self.parts):
            f = self.field(cube, v)
            if p == 2:
                out.append({1: "0", 2: "1", 3: "-", 0: "~"}[f])
            else:
                out.append(format(f, f"0{p}b")[::-1])
        return " ".join(out)

    def cube_from_str(self, text: str) -> int:
        """Parse the output of :meth:`cube_to_str`."""
        tokens = text.split()
        if len(tokens) != self.num_vars:
            raise ValueError("wrong number of variable tokens")
        fields = []
        for v, tok in enumerate(tokens):
            p = self.parts[v]
            if p == 2 and len(tok) == 1 and tok in "01-~":
                fields.append({"0": 1, "1": 2, "-": 3, "~": 0}[tok])
            else:
                if len(tok) != p:
                    raise ValueError(f"token {tok!r} wrong width for variable {v}")
                fields.append(int(tok[::-1], 2))
        return self.cube_from_fields(fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Format) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Format(parts={self.parts})"


def binary_format(num_inputs: int, num_outputs: int) -> Format:
    """Convenience format: *num_inputs* binary variables plus an output part."""
    return Format([2] * num_inputs + [max(num_outputs, 1)])
