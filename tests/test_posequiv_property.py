"""The incremental embedding search equals the per-step rescan it replaced.

The reference below is the former ``_PosEquiv`` engine, kept only here
as an oracle.  At every search step it rescanned every node's father
list to find the selectable nodes, recomputed every unplaced
singleton's region for the MRV pick (clearing the whole region memo on
each constraint assignment), and verified a candidate code by walking
every placed face.  The engine in ``repro.encoding.iexact`` keeps that
state across assignments instead; it must reach the same solution
(codes, or None) after the same number of budget charges — on random
input graphs, for every code length from ``mincube_dim`` to one above,
for level vectors drawn from ``_level_vectors``, under ``max_work``
caps that trip mid-search, and with ``io_check`` veto hooks (the
iohybrid covering-edge check among them).
"""

import random
from typing import Dict, Iterator, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.constraints.faces import Face, faces_of_level, min_level, subfaces
from repro.constraints.poset import InputGraph
from repro.encoding.iexact import (
    _level_vectors,
    _PosEquiv,
    mincube_dim,
    semiexact_code,
)
from repro.encoding.iohybrid import _EdgeCheck
from repro.logic import backend
from repro.perf.budget import Budget, BudgetExceeded


class ReferencePosEquiv:
    """The per-step-rescan engine: selection, regions and verification
    recomputed from the placed faces at every search node."""

    def __init__(self, ig, k, dimvect=None, max_work=None, io_check=None):
        self.ig = ig
        self.k = k
        self.dimvect = dimvect or {}
        self.budget = Budget(work=max_work)
        self.io_check = io_check
        self.enc: Dict[int, Face] = {ig.universe: Face.universe(k)}
        self.used: Dict[Face, int] = {}
        self.codes: Dict[int, int] = {}
        self._nodes = list(ig.non_universe_nodes())
        self._real_fathers = {
            ic: [f for f in ig.fathers[ic] if f != ig.universe]
            for ic in self._nodes
        }

    @property
    def work(self) -> int:
        return self.budget.work

    @staticmethod
    def _is_singleton(ic: int) -> bool:
        return ic & (ic - 1) == 0

    def _verify(self, ic: int, face: Face) -> bool:
        ig = self.ig
        if face.cardinality < ig.cardinality(ic):
            return False
        if face in self.used:
            return False
        for fa in ig.fathers[ic]:
            fa_face = self.enc.get(fa)
            if fa_face is not None and not fa_face.contains(face):
                return False
        if self._is_singleton(ic):
            code = face.val
            for other, of in self.enc.items():
                if other == ig.universe or other == ic:
                    continue
                member = (ic & other) != 0
                if self._is_singleton(other):
                    if of.val == code:
                        return False
                elif of.contains_code(code) != member:
                    return False
            if self.io_check is not None:
                state = ic.bit_length() - 1
                if not self.io_check(state, code, self.codes):
                    return False
            return True
        codes = self.codes
        if codes and not backend.face_members_ok(
                list(codes.keys()), list(codes.values()),
                ic, face.care, face.val):
            return False
        for other, of in self.enc.items():
            if other == ig.universe or other == ic:
                continue
            if ic & other and face.intersect(of) is None:
                return False
        return True

    def _assign(self, ic: int, face: Face) -> None:
        self.enc[ic] = face
        self.used[face] = ic
        if self._is_singleton(ic):
            self.codes[ic.bit_length() - 1] = face.val

    def _undo(self, ic: int) -> None:
        face = self.enc.pop(ic)
        self.used.pop(face, None)
        if self._is_singleton(ic):
            self.codes.pop(ic.bit_length() - 1, None)

    def _selectable(self) -> List[int]:
        return [ic for ic in self._nodes if ic not in self.enc
                and all(f in self.enc for f in self._real_fathers[ic])]

    def _target_level(self, ic: int) -> int:
        if self._is_singleton(ic):
            return 0
        if self.ig.category(ic) == 1:
            return self.dimvect.get(ic, min_level(self.ig.cardinality(ic)))
        return min_level(self.ig.cardinality(ic))

    def _select_next(self, lic: Optional[int]) -> Optional[int]:
        candidates = self._selectable()
        if not candidates:
            return None
        ig = self.ig
        best = None
        best_key: Optional[Tuple] = None
        for ic in candidates:
            if self._is_singleton(ic):
                continue
            shares = lic is not None and ig.share_children(ic, lic)
            key = (-self._target_level(ic), ig.category(ic) != 1,
                   not shares, ic)
            if best_key is None or key < best_key:
                best, best_key = ic, key
        if best is not None:
            return best
        for ic in candidates:
            masks = self._region_masks(ic)
            room = 0 if masks is None \
                else 1 << (self.k - masks[0].bit_count())
            key = (room, ic)
            if best_key is None or key < best_key:
                best, best_key = ic, key
        return best

    def _region_masks(self, ic: int) -> Optional[Tuple[int, int]]:
        care = 0
        val = 0
        for fa in self._real_fathers[ic]:
            face = self.enc.get(fa)
            if face is None:
                continue
            if (val ^ face.val) & care & face.care:
                return None
            care |= face.care
            val |= face.val
        return care, val

    def _candidate_faces(self, ic: int) -> Iterator[Face]:
        ig = self.ig
        masks = self._region_masks(ic)
        if masks is None:
            return
        region = Face(self.k, masks[0], masks[1])
        if self._is_singleton(ic):
            for code in region.vertices():
                yield Face.vertex(self.k, code)
            return
        if ig.category(ic) == 1:
            level = self.dimvect.get(ic, min_level(ig.cardinality(ic)))
            gen = faces_of_level(self.k, level)
            if len(self.enc) == 1:
                for face in gen:
                    yield face
                    return
            yield from gen
            return
        low = min_level(ig.cardinality(ic))
        for level in range(low, region.level + 1):
            yield from subfaces(region, level)

    def solve(self) -> Optional[Dict[int, Face]]:
        try:
            if self._search(None):
                return dict(self.enc)
            return None
        except BudgetExceeded:
            return None

    def _search(self, lic: Optional[int]) -> bool:
        ic = self._select_next(lic)
        if ic is None:
            return self._final_check()
        for face in self._candidate_faces(ic):
            self.budget.charge()
            if not self._verify(ic, face):
                continue
            self._assign(ic, face)
            if self._search(ic):
                return True
            self._undo(ic)
        return False

    def _final_check(self) -> bool:
        states = list(range(self.ig.n))
        if any(s not in self.codes for s in states):
            return False
        codes = [self.codes[s] for s in states]
        return all(backend.face_members_ok(states, codes, ic,
                                           self.enc[ic].care,
                                           self.enc[ic].val)
                   for ic in self.ig.non_universe_nodes())


def reference_edge_check(active_edges: List[Tuple[int, int]]):
    """The covering-edge veto testing every active edge per call."""

    def check(state: int, code: int, codes: Dict[int, int]) -> bool:
        for u, v in active_edges:
            cu = code if u == state else codes.get(u)
            cv = code if v == state else codes.get(v)
            if cu is None or cv is None:
                continue
            if cv & ~cu or cu == cv:
                return False
        return True

    return check


def random_veto(rng: random.Random, n: int):
    """A deterministic hook vetoing some (state, code, depth) triples."""
    vetoed = {(rng.randrange(n), rng.randrange(16), rng.randrange(n))
              for _ in range(rng.randrange(1, 3 * n))}

    def check(state: int, code: int, codes: Dict[int, int]) -> bool:
        return (state, code, len(codes)) not in vetoed

    return check


def random_graph(rng: random.Random) -> InputGraph:
    n = rng.randrange(1, 10)
    masks = []
    for _ in range(rng.randrange(0, n + 2) if n > 1 else 0):
        size = rng.randrange(2, n + 1)
        masks.append(sum(1 << s for s in rng.sample(range(n), size)))
    return InputGraph(n, masks)


def run(engine) -> Tuple[Optional[List[int]], int]:
    """(codes or None, work) of one solve."""
    if engine.solve() is None:
        return None, engine.work
    return [engine.codes[s] for s in range(engine.ig.n)], engine.work


def random_case(seed: int):
    """(ig, k, dimvect, max_work, hook kind, hook seed) for one seed."""
    rng = random.Random(seed)
    ig = random_graph(rng)
    k = mincube_dim(ig) + rng.randrange(2)
    primaries = [p for p in ig.primaries() if p & (p - 1)]
    vectors = list(_level_vectors(primaries, ig, k, 6))
    dimvect = rng.choice(vectors) if vectors and rng.random() < 0.7 \
        else None
    max_work = rng.choice((5, 20, 60, 200, 1000, 5000, 20_000))
    if ig.n <= 6 and rng.random() < 0.3:
        max_work = None  # exhaustive on the small instances
    hook = rng.choice(("none", "none", "edges", "veto"))
    return ig, k, dimvect, max_work, hook, rng.randrange(1 << 30)


def hooks(kind: str, seed: int, n: int):
    """(oracle hook, engine hook) of the same kind, built the same way."""
    if kind == "none":
        return None, None
    rng = random.Random(seed)
    if kind == "veto":
        return random_veto(rng, n), random_veto(random.Random(seed), n)
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(1, 2 * n))]
    edges = [(u, v) for u, v in edges if u != v or rng.random() < 0.05]
    return reference_edge_check(edges), _EdgeCheck(edges)


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_incremental_search_matches_rescanning_search(seed):
    ig, k, dimvect, max_work, kind, hook_seed = random_case(seed)
    want_hook, got_hook = hooks(kind, hook_seed, ig.n)
    want = run(ReferencePosEquiv(ig, k, dimvect, max_work, want_hook))
    got = run(_PosEquiv(ig, k, dimvect, max_work, got_hook))
    assert got == want


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_caps_tripping_in_the_vertex_phase(seed):
    """Caps just below a solution's work trip while codes are placed."""
    rng = random.Random(seed)
    ig = random_graph(rng)
    k = mincube_dim(ig)
    codes, work = run(_PosEquiv(ig, k, None, 20_000))
    if codes is None:
        return
    # a solved search ends with one charge per state code, so every
    # cap in the last ig.n charges trips inside the vertex phase
    for cap in {work - 1, max(1, work - ig.n), rng.randrange(1, work + 1)}:
        want = run(ReferencePosEquiv(ig, k, None, cap))
        got = run(_PosEquiv(ig, k, None, cap))
        assert got == want
        if cap < work:
            assert got == (None, cap + 1)


def random_edges(rng: random.Random, n: int) -> List[Tuple[int, int]]:
    """Covering edges over *n* states, self-edges ``(u, u)`` among them."""
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(1, 2 * n + 1))]
    return [(u, v) for u, v in edges if u != v or rng.random() < 0.15]


def test_edge_check_mask_equals_the_edge_by_edge_check():
    """``allowed`` sets a code's bit exactly when the edge-by-edge check
    of the state's edges passes it: with self-edges, and with
    neighbours that have no code."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 9)
        k = rng.randrange(max(1, (n - 1).bit_length()), 5)
        edges = random_edges(rng, n)
        check = _EdgeCheck(edges)
        for state in range(n):
            want = reference_edge_check(
                [(u, v) for u, v in edges if state in (u, v)])
            others = [s for s in range(n) if s != state]
            codes = {s: rng.randrange(1 << k)
                     for s in rng.sample(others, rng.randrange(n))}
            mask = check.allowed(state, codes, k)
            for code in range(1 << k):
                assert bool(mask >> code & 1) == want(state, code, codes)


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_edge_checked_search_matches_rescanning_search(seed):
    """iohybrid's hook in mask form, and the edge-by-edge check called
    per code, give the oracle's codes and work."""
    rng = random.Random(seed)
    ig = random_graph(rng)
    k = mincube_dim(ig) + rng.randrange(2)
    edges = random_edges(rng, ig.n)
    max_work = rng.choice((30, 300, 3000, 20_000))
    check = reference_edge_check(edges)
    want = run(ReferencePosEquiv(ig, k, None, max_work, check))
    assert run(_PosEquiv(ig, k, None, max_work, _EdgeCheck(edges))) == want
    assert run(_PosEquiv(ig, k, None, max_work, check)) == want


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_caps_trip_at_the_oracles_work(seed):
    """Every cap below a search's work trips where one charge per
    candidate would: skipped codes are charged in bulk, by rank."""
    ig, k, dimvect, _, kind, hook_seed = random_case(seed)
    want_hook, got_hook = hooks(kind, hook_seed, ig.n)
    _, total = run(ReferencePosEquiv(ig, k, dimvect, 20_000, want_hook))
    rng = random.Random(seed)
    for cap in {0, 1, total - 1, *rng.sample(range(1, total + 1),
                                              min(total, 8))}:
        if cap < 0:
            continue
        want_hook, got_hook = hooks(kind, hook_seed, ig.n)
        want = run(ReferencePosEquiv(ig, k, dimvect, cap, want_hook))
        got = run(_PosEquiv(ig, k, dimvect, cap, got_hook))
        assert got == want
        if cap < total:
            assert got == (None, cap + 1)


def test_plain_callable_hook():
    """A hook with no mask form is called once per open code."""
    calls = []

    def veto(state: int, code: int, codes: Dict[int, int]) -> bool:
        calls.append((state, code))
        return not (state == 0 and code in (0, 1))

    ig = InputGraph(4, [])
    got = run(_PosEquiv(ig, 2, None, 1000, veto))
    assert got == run(ReferencePosEquiv(ig, 2, None, 1000, veto))
    assert got[0] is not None and got[0][0] not in (0, 1)
    assert (0, 0) in calls and (0, 1) in calls


def test_paper_example_same_codes_and_work():
    from tests.conftest import paper_constraint_masks

    ig = InputGraph(7, paper_constraint_masks())
    for k in (3, 4):
        want = run(ReferencePosEquiv(ig, k))
        assert run(_PosEquiv(ig, k)) == want
    assert want[0] is not None


def test_level_vector_below_a_constraints_size_is_rejected():
    # _level_vectors starts every range at the constraint's min_level
    from tests.conftest import paper_constraint_masks

    ig = InputGraph(7, paper_constraint_masks())
    primaries = [p for p in ig.primaries() if p & (p - 1)]
    dimvect = {p: min_level(p.bit_count()) for p in primaries}
    dimvect[primaries[0]] -= 1
    with pytest.raises(AssertionError):
        _PosEquiv(ig, 3, dimvect)


def test_one_state_graph():
    # the universe is the only node, so no singleton node ever gets a
    # code and the search reports no embedding, as the oracle does
    ig = InputGraph(1, [])
    for k in (0, 1, 2):
        assert run(_PosEquiv(ig, k)) == run(ReferencePosEquiv(ig, k)) \
            == (None, 0)


def test_semiexact_code_still_returns_the_engine_codes():
    # a 4-cycle of pair constraints over 4 states at k = 2
    masks = [0b0011, 0b0110, 0b1100, 0b1001]
    enc = semiexact_code(masks, 4, 2)
    want, _ = run(ReferencePosEquiv(InputGraph(4, masks), 2,
                                    max_work=20_000))
    assert enc is not None and list(enc.codes) == want
