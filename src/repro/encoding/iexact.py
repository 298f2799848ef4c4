"""`iexact_code` and `semiexact_code`: (bounded) exact face hypercube embedding.

The engine decides face hypercube embedding by backtracking over the
input graph: category-1 constraints are assigned faces explicitly
(``genface``-style enumeration, level fixed by the primary level vector
``dimvect`` of §3.3.1), category-2/3 constraints are placed within the
intersection of their fathers' faces, and singletons take vertices —
the state codes.  Every proposed face is verified against the partial
assignment with the §3.1 criterion (a face must contain exactly the
member codes) plus the sound §3.4.3 pruning rules (face inclusion ⇒
set inclusion; constraints sharing a state must receive intersecting
faces).  ``iexact_code`` sweeps cube dimensions and level vectors;
``semiexact_code`` is the bounded variant of §4.1 — minimum-level
faces, MRV singleton ordering, and a ``max_work`` cap.

Deliberate deviations from a literal reading of the paper are recorded
in DESIGN.md §6: the two-phase backtracking of ``pos_equiv`` becomes
plain chronological backtracking with per-node face generators, and the
global exact-intersection equalities of SUBPOSET EQUIVALENCE are
relaxed to the code-level criterion (taken literally they reject
satisfiable instances such as triangles of pair constraints).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import perf
from repro.constraints.faces import (
    Face,
    count_faces_of_level,
    faces_of_level,
    min_level,
    subfaces,
)
from repro.constraints.input_constraints import ConstraintSet
from repro.constraints.poset import InputGraph
from repro.encoding.base import Encoding
from repro.logic import backend
from repro.perf.budget import Budget, BudgetExceeded, tick

# an io_check receives (state, proposed code, codes fixed so far) and may
# veto the assignment -- used by io_semiexact_code to enforce output
# covering constraints while the input search runs
IoCheck = Callable[[int, int, Dict[int, int]], bool]

# back-compat alias: the bounded search used to raise its own exception
_WorkLimit = BudgetExceeded


# ----------------------------------------------------------------------
# lower bounds on the cube dimension (§3.3.2)
# ----------------------------------------------------------------------
def count_cond1(ig: InputGraph) -> int:
    """Enough faces of every level for the constraints needing them."""
    need: Dict[int, int] = {}
    for ic in ig.non_universe_nodes():
        tick()
        lvl = min_level(ig.cardinality(ic))
        need[lvl] = need.get(lvl, 0) + 1
    k = max(1, min_level(ig.n))
    while True:
        tick()
        if all(lvl <= k and need_count <= count_faces_of_level(k, lvl)
               for lvl, need_count in need.items()):
            return k
        k += 1


def count_cond2(ig: InputGraph, k: int) -> int:
    """A face of level l has k - l minimal including faces; every
    constraint needs at least as many as it has fathers."""
    for ic in ig.non_universe_nodes():
        tick()
        lvl = min_level(ig.cardinality(ic))
        k = max(k, lvl + len(ig.fathers[ic]))
    return k


def count_cond3(ig: InputGraph, k: int) -> int:
    """Virtual states introduced by uneven constraints (§3.3.2.2)."""
    vrt = []
    for ic in ig.non_universe_nodes():
        tick()
        c = ig.cardinality(ic)
        pow2 = 1 << min_level(c)
        if pow2 != c:
            vrt.append(pow2 - c)
    if not vrt:
        return k
    while True:
        counts = sorted(vrt)
        iters = 0
        while any(counts):
            nonzero = [i for i, v in enumerate(counts) if v]
            for i in nonzero[:k]:
                counts[i] -= 1
            iters += 1
        if (1 << k) - ig.n >= iters:
            return k
        k += 1


def mincube_dim(ig: InputGraph) -> int:
    """Lower bound on the encoding length (``mincube_dim`` of the paper)."""
    k = count_cond1(ig)
    k = count_cond2(ig, k)
    k = count_cond3(ig, k)
    return k


# ----------------------------------------------------------------------
# the backtracking engine (pos_equiv)
# ----------------------------------------------------------------------
class _PosEquiv:
    """One restricted SUBPOSET EQUIVALENCE decision (fixed k, dimvect)."""

    def __init__(
        self,
        ig: InputGraph,
        k: int,
        dimvect: Optional[Dict[int, int]] = None,
        max_work: Optional[int] = None,
        io_check: Optional[IoCheck] = None,
        budget: Optional[Budget] = None,
    ):
        self.ig = ig
        self.k = k
        self.dimvect = dimvect or {}
        # one unified budget: per-call work cap, optionally a shared
        # wall-clock deadline inherited from the caller
        self.budget = budget.sub(work=max_work) if budget is not None \
            else Budget(work=max_work)
        self.io_check = io_check
        self.enc: Dict[int, Face] = {ig.universe: Face.universe(k)}
        self.used: Dict[Face, int] = {}
        self.codes: Dict[int, int] = {}  # state -> code, for io_check
        # per-node father lists without the universe, precomputed once:
        # the selection loop and the region computation run once per
        # search node x candidate and must not re-filter every time
        self._nodes = list(ig.non_universe_nodes())
        self._real_fathers: Dict[int, List[int]] = {
            ic: [f for f in ig.fathers[ic] if f != ig.universe]
            for ic in self._nodes
        }
        # region masks stay valid while only singletons are (un)assigned
        # -- singleton codes are never anyone's father face -- so the
        # memo survives the long vertex-placement phases of the search
        self._region_memo: Dict[int, Optional[Tuple[int, int]]] = {}

    @property
    def work(self) -> int:
        return self.budget.work

    # -- bookkeeping ----------------------------------------------------
    def _charge(self) -> None:
        self.budget.charge()

    def _is_singleton(self, ic: int) -> bool:
        return ic & (ic - 1) == 0

    # -- verification -----------------------------------------------------
    # The checks realize the §3.1 criterion (f(ic) ∩ f(s) ≠ ∅ ⇔ s ∈ ic)
    # incrementally: singleton faces are vertices (codes), every proposed
    # face must contain exactly the member codes among those already
    # placed, and fathers' faces must contain their descendants.  The
    # §3.4.3 constraint-vs-constraint equalities are *not* enforced:
    # taken literally they reject satisfiable instances (any triangle of
    # pair constraints), which the real NOVA clearly encodes.
    def _verify(self, ic: int, face: Face) -> bool:
        ig = self.ig
        if face.cardinality < ig.cardinality(ic):
            return False
        if face in self.used:
            return False  # injectivity
        # father conditions on the input poset
        for fa in ig.fathers[ic]:
            fa_face = self.enc.get(fa)
            if fa_face is not None and not fa_face.contains(face):
                return False
        singleton = self._is_singleton(ic)
        if singleton:
            code = face.val
            # the new code must lie inside exactly the assigned
            # constraint faces whose constraint contains this state
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
        # non-singleton: must contain exactly the member codes placed so
        # far — one batched membership check over all placed codes
        codes = self.codes
        if codes and not backend.face_members_ok(
                list(codes.keys()), list(codes.values()),
                ic, face.care, face.val):
            return False
        # sound forward pruning: two constraints sharing a state must get
        # intersecting faces -- the shared state's code will lie in both
        for other, of in self.enc.items():
            if other == ig.universe or other == ic:
                continue
            if ic & other and face.intersect(of) is None:
                return False
        return True

    def _assign(self, ic: int, face: Face) -> Optional[List[int]]:
        """Record the assignment (returns the undo list)."""
        self.enc[ic] = face
        self.used[face] = ic
        if self._is_singleton(ic):
            self.codes[ic.bit_length() - 1] = face.val
        else:
            self._region_memo.clear()
        return [ic]

    def _undo(self, nodes: List[int]) -> None:
        for node in nodes:
            face = self.enc.pop(node)
            self.used.pop(face, None)
            if self._is_singleton(node):
                self.codes.pop(node.bit_length() - 1, None)
            else:
                self._region_memo.clear()

    # -- node selection (next_to_code, §3.4.1) ----------------------------
    def _selectable(self) -> List[int]:
        enc = self.enc
        out = []
        for ic in self._nodes:
            if ic in enc:
                continue
            # encode fathers first (their faces bound ours)
            for f in self._real_fathers[ic]:
                if f not in enc:
                    break
            else:
                out.append(ic)
        return out

    def _target_level(self, ic: int) -> int:
        if self._is_singleton(ic):
            return 0
        cat = self.ig.category(ic)
        if cat == 1:
            return self.dimvect.get(ic, min_level(self.ig.cardinality(ic)))
        return min_level(self.ig.cardinality(ic))

    def _select_next(self, lic: Optional[int]) -> Optional[int]:
        candidates = self._selectable()
        if not candidates:
            return None
        # non-singleton constraints always outrank singletons (their key
        # tuples sorted first), so singleton regions -- the expensive part
        # of MRV -- only need computing when nothing but vertices is left
        ig = self.ig
        best = None
        best_key: Optional[Tuple] = None
        # nova-lint: disable=NV002 -- bounded per-node scan; the search
        # is metered by _search's charge per candidate face, and adding
        # charges here would shift the paper's max_work trip points
        for ic in candidates:
            if self._is_singleton(ic):
                continue
            shares = lic is not None and ig.share_children(ic, lic)
            # larger faces first, then category 1, then children sharing
            k = (-self._target_level(ic), ig.category(ic) != 1,
                 not shares, ic)
            if best_key is None or k < best_key:
                best, best_key = ic, k
        if best is not None:
            return best
        # nova-lint: disable=NV002 -- MRV scan over unplaced singletons;
        # metered by _search's charge per candidate, and extra charges
        # would change the max_work semantics of the bounded search
        for ic in candidates:
            # MRV: most-constrained singleton first (smallest region)
            masks = self._region_masks(ic)
            room = 0 if masks is None \
                else 1 << (self.k - masks[0].bit_count())
            k = (room, ic)
            if best_key is None or k < best_key:
                best, best_key = ic, k
        return best

    # -- face generation (assign_face / genface, §3.4.2) -------------------
    def _region_masks(self, ic: int) -> Optional[Tuple[int, int]]:
        """``(care, val)`` of the assigned fathers' intersection.

        Pure integer arithmetic — the MRV selection calls this for
        every unplaced singleton at every search node, so no Face
        objects are allocated.  Returns ``None`` when the fathers'
        faces are disjoint (empty region).
        """
        memo = self._region_memo
        if ic in memo:
            return memo[ic]
        care = 0
        val = 0
        enc_get = self.enc.get
        # nova-lint: disable=NV002 -- memoized pure-integer father scan
        # on the hot MRV path; metered by _search's charge per candidate
        for fa in self._real_fathers[ic]:
            face = enc_get(fa)
            if face is None:
                continue
            if (val ^ face.val) & care & face.care:
                memo[ic] = None
                return None
            care |= face.care
            val |= face.val
        memo[ic] = (care, val)
        return care, val

    def _region(self, ic: int) -> Optional[Face]:
        """Intersection of the assigned fathers' faces: the search region."""
        masks = self._region_masks(ic)
        if masks is None:
            return None
        return Face(self.k, masks[0], masks[1])

    def _candidate_faces(self, ic: int) -> Iterator[Face]:
        ig = self.ig
        region = self._region(ic)
        if region is None:
            return
        if self._is_singleton(ic):
            # singleton faces are vertices: the state codes, enumerated
            # in sorted order by one batched kernel call
            # nova-lint: disable=NV002 -- candidate generator; _search
            # charges the budget once per face it consumes from here
            for code in backend.face_vertices(
                    self.k, region.care, region.val):
                yield Face.vertex(self.k, code)
            return
        cat = ig.category(ic)
        if cat == 1:
            level = self.dimvect.get(ic, min_level(ig.cardinality(ic)))
            gen = faces_of_level(self.k, level)
            if len(self.enc) == 1:
                # symmetry breaking: the very first face can be fixed --
                # all faces of one level are hypercube-automorphic
                for face in gen:
                    yield face
                    return
            yield from gen
            return
        # category 2/3: faces inside the region, tightest level first
        low = min_level(ig.cardinality(ic))
        # nova-lint: disable=NV002 -- candidate generator; _search
        # charges the budget once per face it consumes from here
        for level in range(low, region.level + 1):
            yield from subfaces(region, level)

    # -- the search --------------------------------------------------------
    def solve(self) -> Optional[Dict[int, Face]]:
        try:
            if self._search(None):
                return dict(self.enc)
            return None
        except BudgetExceeded as exc:
            if exc.limit == "time":
                raise  # the whole run is out of time, not just this call
            return None  # per-call work cap: bounded-search rejection
        finally:
            stats = perf.STATS
            if stats is not None:
                stats.pos_equiv_work += self.budget.work

    def _search(self, lic: Optional[int]) -> bool:
        ic = self._select_next(lic)
        if ic is None:
            return self._final_check()
        for face in self._candidate_faces(ic):
            self._charge()
            if not self._verify(ic, face):
                continue
            done = self._assign(ic, face)
            if done is None:
                continue
            if self._search(ic):
                return True
            self._undo(done)
        return False

    def _final_check(self) -> bool:
        """Authoritative face-embedding check on the complete assignment."""
        ig = self.ig
        states = list(range(ig.n))
        try:
            codes = [self.codes[s] for s in states]
        except KeyError:
            return False  # some state never received a code
        # nova-lint: disable=NV002 -- runs once per *complete*
        # assignment, after the charged search has already paid for
        # every node that led here
        for ic in ig.non_universe_nodes():
            face = self.enc[ic]
            if not backend.face_members_ok(
                    states, codes, ic, face.care, face.val):
                return False
        return True


def pos_equiv(
    ig: InputGraph,
    k: int,
    dimvect: Optional[Dict[int, int]] = None,
    max_work: Optional[int] = None,
    io_check: Optional[IoCheck] = None,
    budget: Optional[Budget] = None,
) -> Optional[Encoding]:
    """Decide restricted SUBPOSET EQUIVALENCE; return an encoding if any."""
    engine = _PosEquiv(ig, k, dimvect, max_work, io_check, budget)
    result = engine.solve()
    if result is None:
        return None
    codes = [engine.codes[s] for s in range(ig.n)]
    return Encoding(k, codes)


# ----------------------------------------------------------------------
# the exact algorithm (§3.3)
# ----------------------------------------------------------------------
def _level_vectors(
    primaries: List[int], ig: InputGraph, k: int, limit: int
) -> Iterator[Dict[int, int]]:
    """Primary level vectors in increasing lexicographic order."""
    ranges = []
    for ic in primaries:
        low = min_level(ig.cardinality(ic))
        ranges.append(range(low, k))  # empty when low >= k: no vector fits
    count = 0
    for combo in itertools.product(*ranges):
        tick()
        yield dict(zip(primaries, combo))
        count += 1
        if count >= limit:
            return


def iexact_code(
    cs: ConstraintSet,
    max_k: Optional[int] = None,
    max_work: Optional[int] = 30_000,
    max_vectors: int = 64,
    time_budget: Optional[float] = 30.0,
    budget: Optional[Budget] = None,
) -> Optional[Encoding]:
    """Minimum-length encoding satisfying *all* input constraints.

    Exact in spirit and on the benchmark sizes it is meant for; the
    ``max_work`` / ``max_vectors`` caps make the worst cases give up
    (returning None) exactly as the paper reports for scf and tbk.
    Running out of *wall-clock* allowance is different from an
    exhausted search: it raises
    :class:`~repro.errors.BudgetExhausted` so callers can distinguish
    "infeasible under the caps" from "ran out of time".  The deadline —
    ``time_budget`` from now, clipped to the caller's *budget* when one
    is given — is shared with every ``pos_equiv`` call through one
    :class:`~repro.perf.Budget`, so a single runaway vector can no
    longer overshoot it.
    """
    own = Budget(seconds=time_budget, stage="iexact")
    if budget is not None and budget.deadline is not None:
        if own.deadline is None or budget.deadline < own.deadline:
            own.deadline = budget.deadline
    ig = InputGraph(cs.n, cs.masks())
    upper = cs.n if max_k is None else max_k
    primaries = [p for p in ig.primaries() if p & (p - 1)]  # non-singletons
    for k in range(mincube_dim(ig), upper + 1):
        for dimvect in _level_vectors(primaries, ig, k, max_vectors):
            own.check_time()
            enc = pos_equiv(ig, k, dimvect, max_work, budget=own)
            if enc is not None:
                return enc
    return None


def semiexact_code(
    masks: Iterable[int],
    n: int,
    k: int,
    max_work: int = 20_000,
    io_check: Optional[IoCheck] = None,
    budget: Optional[Budget] = None,
) -> Optional[Encoding]:
    """Bounded backtrack coding (§4.1): min-level faces, capped work."""
    ig = InputGraph(n, list(masks))
    if mincube_dim(ig) > k:
        return None
    return pos_equiv(ig, k, dimvect=None, max_work=max_work,
                     io_check=io_check, budget=budget)
