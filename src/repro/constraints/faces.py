"""Faces (subcubes) of the Boolean encoding k-cube.

A face is a pair of bitmasks ``(care, val)`` over ``k`` positions: the
positions set in ``care`` are fixed to the corresponding bit of ``val``;
the others are free (``x``).  ``level`` is the number of free positions,
so the face contains ``2**level`` vertices — matching the paper's
*level* / *cardinality* terminology for the n-cube face-poset.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Dict, Iterator, Optional, Tuple

#: a face as ``(care, val)`` ints, the form the embedding search uses
Pair = Tuple[int, int]

_UNIVERSE_CACHE: Dict[int, "Face"] = {}


class Face:
    """An immutable face of the k-cube."""

    __slots__ = ("k", "care", "val")

    def __init__(self, k: int, care: int, val: int):
        full = (1 << k) - 1
        if care & ~full:
            raise ValueError("care mask wider than the cube")
        self.k = k
        self.care = care
        self.val = val & care  # normalize: value bits only where cared

    # ------------------------------------------------------------------
    @classmethod
    def vertex(cls, k: int, code: int) -> "Face":
        """The level-0 face holding exactly *code*."""
        return cls(k, (1 << k) - 1, code)

    @classmethod
    def universe(cls, k: int) -> "Face":
        # faces are immutable, so the per-k universe is shared: the
        # embedding engine asks for it millions of times per search
        face = _UNIVERSE_CACHE.get(k)
        if face is None:
            face = _UNIVERSE_CACHE[k] = cls(k, 0, 0)
        return face

    @classmethod
    def spanning(cls, k: int, codes) -> "Face":
        """Smallest face containing all the given vertex codes (supercube)."""
        codes = list(codes)
        if not codes:
            raise ValueError("spanning face of no codes")
        ones = 0
        zeros = 0
        for c in codes:
            ones |= c
            zeros |= ~c
        care = (1 << k) - 1 & ~(ones & zeros)
        return cls(k, care, codes[0] & care)

    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        return self.k - self.care.bit_count()

    @property
    def cardinality(self) -> int:
        return 1 << (self.k - self.care.bit_count())

    def contains_code(self, code: int) -> bool:
        return (code ^ self.val) & self.care == 0

    def contains(self, other: "Face") -> bool:
        """Face inclusion: every vertex of *other* lies in this face."""
        if other.k != self.k:
            raise ValueError("faces of different cubes")
        return (self.care & ~other.care) == 0 and \
            (self.val ^ other.val) & self.care == 0

    def intersect(self, other: "Face") -> Optional["Face"]:
        """Intersection face, or None when disjoint."""
        if (self.val ^ other.val) & self.care & other.care:
            return None
        return Face(self.k, self.care | other.care, self.val | other.val)

    def vertices(self) -> Iterator[int]:
        """Enumerate the codes of the face's vertices."""
        free = [i for i in range(self.k) if not (self.care >> i) & 1]
        for bits in range(1 << len(free)):
            code = self.val
            for j, pos in enumerate(free):
                if (bits >> j) & 1:
                    code |= 1 << pos
            yield code

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Face)
            and self.k == other.k
            and self.care == other.care
            and self.val == other.val
        )

    def __hash__(self) -> int:
        return hash((self.k, self.care, self.val))

    def __repr__(self) -> str:
        return f"Face({self})"

    def __str__(self) -> str:
        out = []
        for i in range(self.k - 1, -1, -1):
            if (self.care >> i) & 1:
                out.append("1" if (self.val >> i) & 1 else "0")
            else:
                out.append("x")
        return "".join(out)

    @classmethod
    def from_str(cls, text: str) -> "Face":
        """Parse a face written MSB-first with 0/1/x characters."""
        k = len(text)
        care = 0
        val = 0
        for i, ch in enumerate(text):
            bit = k - 1 - i
            if ch in "01":
                care |= 1 << bit
                if ch == "1":
                    val |= 1 << bit
            elif ch != "x":
                raise ValueError(f"bad face character {ch!r}")
        return cls(k, care, val)


def min_level(cardinality: int) -> int:
    """Smallest face level able to hold *cardinality* vertices."""
    if cardinality <= 1:
        return 0
    return (cardinality - 1).bit_length()


def level_pairs(k: int, level: int) -> Iterator[Pair]:
    """:func:`faces_of_level` as ``(care, val)`` pairs, in its order."""
    if level < 0 or level > k:
        return
    full = (1 << k) - 1
    for free in combinations(range(k), level):
        care = full
        for pos in free:
            care &= ~(1 << pos)
        # the values are the submasks of care in increasing order, which
        # is the order of genface's counter over the care positions
        val = 0
        while True:
            yield care, val
            val = (val - care) & care
            if not val:
                break


def _subface_pairs(k: int, care: int, val: int, level: int
                   ) -> Iterator[Pair]:
    """:func:`subfaces` of the face ``(care, val)`` as pairs."""
    free = [pos for pos in range(k) if not (care >> pos) & 1]
    for fixed in combinations(free, len(free) - level):
        mask = 0
        for pos in fixed:
            mask |= 1 << pos
        sub = 0
        while True:
            yield care | mask, val | sub
            sub = (sub - mask) & mask
            if not sub:
                break


def subface_pairs(k: int, care: int, val: int, low: int) -> Iterator[Pair]:
    """Every subface of ``(care, val)`` from level *low* up to the face's
    own, as ``(care, val)`` pairs: :func:`subfaces` level by level."""
    top = k - care.bit_count()
    for level in range(max(low, 0), top + 1):
        yield from _subface_pairs(k, care, val, level)


def faces_of_level(k: int, level: int) -> Iterator[Face]:
    """All faces of the k-cube with the given level, lexicographically.

    Generation mirrors NOVA's ``genface``: all placements of the x
    pattern, and for each placement all values of the care positions.
    """
    for care, val in level_pairs(k, level):
        yield Face(k, care, val)


def subfaces(face: Face, level: int) -> Iterator[Face]:
    """All faces of the given level strictly or equally inside *face*.

    Produced lexicographically, mirroring ``genface`` restricted to the
    subspace assigned to a category-3 constraint's father.
    """
    if level > face.level or level < 0:
        return
    for care, val in _subface_pairs(face.k, face.care, face.val, level):
        yield Face(face.k, care, val)


def vertex_mask(k: int, care: int, val: int) -> int:
    """The face's vertices as a 2^k-bit int (bit c set for code c)."""
    bits = 1 << val
    for pos in range(k):
        if not (care >> pos) & 1:
            bits |= bits << (1 << pos)
    return bits


def count_faces_of_level(k: int, level: int) -> int:
    """Number of faces of a given level in the k-cube: C(k,l) * 2^(k-l)."""
    return comb(k, level) * (1 << (k - level))
