"""The input poset and input graph IG of §3.2.

The poset is the intersection closure of the input constraints,
augmented by all singletons and the universe, ordered by set inclusion.
``InputGraph`` stores, for every node, its *fathers* (minimal strictly
including nodes) and *children* (maximal strictly included nodes) — the
compact Hasse-diagram representation NOVA walks during encoding — plus
the category classification that drives the backtracking:

* category 1 (*primary*): exactly one father, the universe;
* category 2: more than one father (face forced by intersection);
* category 3: exactly one father, not the universe (face nested in the
  father's face).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Set


def closure_intersection(n: int, masks: Iterable[int]) -> Set[int]:
    """Closure of the constraints under pairwise intersection.

    Per the paper's definition the closure contains the constraints, all
    singletons of S, and the pairwise intersections of constraints (we
    iterate to a fixpoint so nested intersections are represented too —
    the extra nodes only sharpen the father/child structure).
    """
    base = {m for m in masks if m}
    out = set(base)
    out.update(1 << i for i in range(n))
    frontier = set(out)
    while frontier:
        new: Set[int] = set()
        for a in frontier:
            for b in base:
                c = a & b
                if c and c not in out:
                    new.add(c)
        out.update(new)
        frontier = new
    return out


class InputGraph:
    """Fathers/children structure over the closed input poset."""

    def __init__(self, n: int, constraint_masks: Iterable[int]):
        self.n = n
        self.universe = (1 << n) - 1
        nodes = closure_intersection(n, constraint_masks)
        nodes.add(self.universe)
        self.nodes: List[int] = sorted(nodes)
        self.fathers: Dict[int, List[int]] = {}
        self.children: Dict[int, List[int]] = {}
        self._build_edges()

    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        by_card = sorted(self.nodes, key=int.bit_count)
        cards = [ic.bit_count() for ic in by_card]
        for ic in by_card:
            if ic == self.universe:
                self.fathers[ic] = []
                continue
            # fathers: minimal strict supersets.  Scanned in cardinality
            # order, a superset is minimal exactly when no father found
            # before it lies inside it.
            fathers: List[int] = []
            for s in by_card[bisect.bisect_right(cards, ic.bit_count()):]:
                if ic & ~s:
                    continue
                for f in fathers:
                    if f & ~s == 0:
                        break
                else:
                    fathers.append(s)
            self.fathers[ic] = sorted(fathers)
        for ic in self.nodes:
            self.children[ic] = []
        for ic in self.nodes:
            for f in self.fathers[ic]:
                self.children[f].append(ic)
        for ic in self.nodes:
            self.children[ic].sort()

    # ------------------------------------------------------------------
    def category(self, ic: int) -> int:
        """NOVA's constraint category (universe itself reports 0)."""
        if ic == self.universe:
            return 0
        fathers = self.fathers[ic]
        if len(fathers) > 1:
            return 2
        if fathers[0] == self.universe:
            return 1
        return 3

    def primaries(self) -> List[int]:
        """Category-1 constraints, largest first (NOVA's dimvect order)."""
        prim = [ic for ic in self.nodes if self.category(ic) == 1]
        return sorted(prim, key=lambda m: (-m.bit_count(), m))

    def cardinality(self, ic: int) -> int:
        return ic.bit_count()

    def non_universe_nodes(self) -> List[int]:
        return [ic for ic in self.nodes if ic != self.universe]

    def share_children(self, a: int, b: int) -> bool:
        """True when the two nodes have a child in common."""
        ca = set(self.children[a])
        return any(c in ca for c in self.children[b])

    def __repr__(self) -> str:
        return f"InputGraph(n={self.n}, {len(self.nodes)} nodes)"
