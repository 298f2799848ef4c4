"""Tests for the input poset / input graph, against the paper's examples."""

import random

from repro.constraints.poset import InputGraph, closure_intersection

from tests.conftest import paper_constraint_masks


def m(*xs: int) -> int:
    return sum(1 << (x - 1) for x in xs)


class TestClosure:
    def test_paper_example_3_1_2(self):
        """Closure of the running example (Example 3.1.2)."""
        masks = paper_constraint_masks()
        closed = closure_intersection(7, masks)
        expected = {
            m(1, 2, 3), m(2, 3, 4), m(5, 6, 7), m(1, 5, 6), m(6, 7),
            m(3, 4), m(2, 3), m(5, 6), m(1), m(2), m(3), m(4), m(5),
            m(6), m(7),
        }
        # our closure iterates to a fixpoint, so it may contain deeper
        # intersections as well -- it must contain the paper's set
        assert expected <= closed

    def test_contains_singletons(self):
        closed = closure_intersection(4, [0b1100])
        for i in range(4):
            assert (1 << i) in closed

    def test_no_empty_element(self):
        closed = closure_intersection(4, [0b1100, 0b0011])
        assert 0 not in closed

    def test_closed_under_intersection(self):
        masks = [0b11100, 0b01110, 0b00111, 0b10101]
        closed = closure_intersection(5, masks)
        for a in closed:
            for b in closed:
                if a & b:
                    assert (a & b) in closed


class TestInputGraph:
    def test_paper_fathers_example_3_2_1(self):
        """Father sets from Example 3.2.1."""
        ig = InputGraph(7, paper_constraint_masks())
        universe = (1 << 7) - 1
        assert ig.fathers[universe] == []
        for primary in (m(1, 2, 3), m(2, 3, 4), m(5, 6, 7), m(1, 5, 6)):
            assert ig.fathers[primary] == [universe]
        assert ig.fathers[m(3, 4)] == [m(2, 3, 4)]
        assert set(ig.fathers[m(2, 3)]) == {m(2, 3, 4), m(1, 2, 3)}
        assert ig.fathers[m(6, 7)] == [m(5, 6, 7)]
        assert set(ig.fathers[m(5, 6)]) == {m(5, 6, 7), m(1, 5, 6)}
        assert set(ig.fathers[m(3)]) == {m(3, 4), m(2, 3)}
        assert ig.fathers[m(4)] == [m(3, 4)]
        assert set(ig.fathers[m(6)]) == {m(6, 7), m(5, 6)}
        assert ig.fathers[m(7)] == [m(6, 7)]
        # the paper's printed F(0000100) is garbled; set logic gives the
        # unique minimal superset {5,6}, consistent with cat({5}) = 3
        # in Example 3.3.1.1
        assert ig.fathers[m(5)] == [m(5, 6)]
        assert ig.fathers[m(2)] == [m(2, 3)]
        assert set(ig.fathers[m(1)]) == {m(1, 2, 3), m(1, 5, 6)}

    def test_paper_categories_example_3_3_1_1(self):
        """Category classification from Example 3.3.1.1."""
        ig = InputGraph(7, paper_constraint_masks())
        for ic in (m(1, 2, 3), m(2, 3, 4), m(5, 6, 7), m(1, 5, 6)):
            assert ig.category(ic) == 1
        for ic in (m(5, 6), m(2, 3), m(3), m(6), m(1)):
            assert ig.category(ic) == 2
        for ic in (m(3, 4), m(6, 7), m(4), m(2), m(7), m(5)):
            assert ig.category(ic) == 3

    def test_children_inverse_of_fathers(self):
        ig = InputGraph(7, paper_constraint_masks())
        for ic in ig.nodes:
            for f in ig.fathers[ic]:
                assert ic in ig.children[f]
            for c in ig.children[ic]:
                assert ic in ig.fathers[c]

    def test_fathers_are_minimal_supersets(self):
        ig = InputGraph(6, [0b111000, 0b011110, 0b000111, 0b110011])
        for ic in ig.non_universe_nodes():
            for f in ig.fathers[ic]:
                assert ic & ~f == 0 and ic != f
                # minimality: no node strictly between ic and f
                for other in ig.nodes:
                    if other in (ic, f):
                        continue
                    between = (ic & ~other == 0) and (other & ~f == 0)
                    assert not between

    def test_primaries_sorted_largest_first(self):
        ig = InputGraph(7, paper_constraint_masks())
        prim = ig.primaries()
        cards = [bin(p).count("1") for p in prim]
        assert cards == sorted(cards, reverse=True)

    def test_share_children(self):
        ig = InputGraph(7, paper_constraint_masks())
        assert ig.share_children(m(1, 2, 3), m(2, 3, 4))  # share {2,3}
        assert not ig.share_children(m(3, 4), m(6, 7))

    def test_universe_always_node(self):
        ig = InputGraph(3, [])
        assert (1 << 3) - 1 in ig.nodes
        assert len(ig.nodes) == 4  # universe + 3 singletons

    def test_fathers_are_the_minimal_strict_supersets(self):
        """The cardinality-ordered scan finds the fathers the definition
        names, in increasing order."""
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(1, 10)
            masks = [rng.randrange(1, 1 << n)
                     for _ in range(rng.randrange(n + 3))]
            ig = InputGraph(n, masks)
            for ic in ig.nodes:
                supersets = [o for o in ig.nodes if o != ic and ic & ~o == 0]
                want = sorted(s for s in supersets if not any(
                    t != s and t & ~s == 0 for t in supersets))
                assert ig.fathers[ic] == want
