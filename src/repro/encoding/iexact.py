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

The search keeps its state across assignments instead of rescanning
it per step (DESIGN.md §6, item 16): readiness counts pick the next
constraint node, per-state forbidden-vertex masks verify a state code
with two bit tests, and once every constraint face is placed the codes
are placed in a frozen MRV order.  Faces are ``(care, val)`` int
pairs.  It generates the same candidates in the same order and
charges the budget once per candidate (the blocked
state codes in bulk), like the rescanning engine
``tests/test_posequiv_property.py`` keeps as its oracle, so encodings
and ``max_work`` trip points do not depend on the bookkeeping.

Deliberate deviations from a literal reading of the paper are recorded
in DESIGN.md §6: the two-phase backtracking of ``pos_equiv`` becomes
plain chronological backtracking with per-node face generators, and the
global exact-intersection equalities of SUBPOSET EQUIVALENCE are
relaxed to the code-level criterion (taken literally they reject
satisfiable instances such as triangles of pair constraints).
"""

from __future__ import annotations

import bisect
import itertools
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    Union,
    runtime_checkable,
)

from repro import perf
from repro.constraints.faces import (
    Pair,
    count_faces_of_level,
    level_pairs,
    min_level,
    subface_pairs,
    vertex_mask,
)
from repro.constraints.input_constraints import ConstraintSet
from repro.constraints.poset import InputGraph
from repro.encoding.base import Encoding
from repro.logic import backend
from repro.perf.budget import Budget, BudgetExceeded, tick

# an io_check receives (state, proposed code, codes fixed so far) and may
# veto the assignment -- used by io_semiexact_code to enforce output
# covering constraints while the input search runs.
IoCheck = Callable[[int, int, Dict[int, int]], bool]


@runtime_checkable
class MaskCheck(Protocol):
    """An io_check in mask form, asked once per state placement."""

    def allowed(self, state: int, codes: Dict[int, int], k: int) -> int:
        """The codes *state* may take given *codes*: bit c for code c."""


IoHook = Union[IoCheck, MaskCheck]

# ----------------------------------------------------------------------
# lower bounds on the cube dimension (§3.3.2)
# ----------------------------------------------------------------------
def count_cond1(ig: InputGraph) -> int:
    """Enough faces of every level for the constraints needing them."""
    need: Dict[int, int] = {}
    nodes = ig.non_universe_nodes()
    tick(len(nodes))
    for ic in nodes:
        lvl = min_level(ic.bit_count())
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
    fathers = ig.fathers
    nodes = ig.non_universe_nodes()
    tick(len(nodes))
    for ic in nodes:
        k = max(k, min_level(ic.bit_count()) + len(fathers[ic]))
    return k


def count_cond3(ig: InputGraph, k: int) -> int:
    """Virtual states introduced by uneven constraints (§3.3.2.2)."""
    vrt = []
    nodes = ig.non_universe_nodes()
    tick(len(nodes))
    for ic in nodes:
        c = ic.bit_count()
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
#: a singleton's vertex-phase MRV entry: (room, node, region masks);
#: room is the region's level, -1 when the region is empty
_Slot = Tuple[int, int, Optional[Pair]]


class _PosEquiv:
    """One restricted SUBPOSET EQUIVALENCE decision (fixed k, dimvect).

    The search runs in two phases.  Constraint nodes always outrank
    singletons, and a constraint becomes selectable once its fathers
    have faces, so every constraint face is placed before the first
    state code: *no state has a code while constraint faces are being
    chosen*.  Once no constraint is ready, all of them are placed, every
    singleton's region and MRV key are fixed, and the vertex phase
    places the codes in that frozen order (:meth:`_place_vertices`).

    What the phases read is kept across ``_assign``/``_undo`` instead of
    being rebuilt per search step: readiness counts of unplaced fathers,
    the singletons' MRV order, and per-state forbidden-vertex masks.
    Faces are ``(care, val)`` int pairs throughout; the candidates come
    from the pair generators of :mod:`repro.constraints.faces`.
    """

    def __init__(
        self,
        ig: InputGraph,
        k: int,
        dimvect: Optional[Dict[int, int]] = None,
        max_work: Optional[int] = None,
        io_check: Optional[IoHook] = None,
        budget: Optional[Budget] = None,
    ):
        self.ig = ig
        self.k = k
        self.dimvect = dimvect or {}
        # one unified budget: per-call work cap, optionally a shared
        # wall-clock deadline inherited from the caller
        self.budget = budget.sub(work=max_work) if budget is not None \
            else Budget(work=max_work)
        # a mask-form hook is asked once per state placement, a plain
        # callable once per open code
        self._allowed: Optional[Callable[[int, Dict[int, int], int], int]]
        self.io_check: Optional[IoCheck]
        if isinstance(io_check, MaskCheck):
            self._allowed, self.io_check = io_check.allowed, None
        else:
            self._allowed, self.io_check = None, io_check
        # faces of the universe and the placed constraint nodes; the
        # singletons' vertex faces join once a solution is found
        self.enc: Dict[int, Pair] = {ig.universe: (0, 0)}
        self.used: Set[Pair] = set()  # placed constraint faces
        self.codes: Dict[int, int] = {}  # state -> code, for io_check
        nodes = ig.non_universe_nodes()
        constraints = [ic for ic in nodes if ic & (ic - 1)]
        fathers = ig.fathers
        universe = ig.universe
        self._real_fathers: Dict[int, List[int]] = {
            ic: [f for f in fathers[ic] if f != universe] for ic in nodes}
        # per constraint: its category-1 level, or None for category 2/3
        # (their faces are subfaces of the fathers' intersection), and
        # the lowest level its faces may have
        self._level: Dict[int, Optional[int]] = {}
        self._low: Dict[int, int] = {}
        # the static part of the selection key (larger faces first, then
        # category 1); children are bitmasks over node indices, so the
        # "shares a child with the last node" tie-break is one AND
        self._rank: Dict[int, Tuple[int, bool]] = {}
        index = {ic: i for i, ic in enumerate(ig.nodes)}
        children = ig.children
        self._child_bits: Dict[int, int] = {}
        for ic in constraints:
            low = min_level(ic.bit_count())
            primary = fathers[ic] == [universe]
            level = self.dimvect.get(ic, low) if primary else low
            assert level >= low, "level vector below a constraint's size"
            self._level[ic] = level if primary else None
            self._low[ic] = low
            self._rank[ic] = (-level, not primary)
            self._child_bits[ic] = sum(1 << index[c] for c in children[ic])
        # readiness: unplaced real fathers per constraint node; a node
        # is ready (selectable) when its count is zero
        self._pending = {ic: len(self._real_fathers[ic])
                         for ic in constraints}
        # per constraint: its constraint children and singleton children
        self._children: Dict[int, Tuple[List[int], List[int]]] = {
            ic: ([c for c in children[ic] if c & (c - 1)],
                 [c for c in children[ic] if not c & (c - 1)])
            for ic in constraints}
        self._ready = {ic for ic in constraints if not self._pending[ic]}
        # per constraint: the constraints crossing it, memoized
        self._crossing: Dict[int, List[int]] = {}
        self._constraints = constraints
        # every singleton's MRV slot, and all slots in sorted order;
        # a face placed or undone marks its singleton children, which
        # are re-slotted when the next vertex phase starts
        # (with one state the universe is the only singleton: no slot)
        self._slot: Dict[int, _Slot] = {
            ic: self._mrv_slot(ic, self._region_masks(ic))
            for ic in nodes if ic & (ic - 1) == 0}
        self._order: List[_Slot] = sorted(self._slot.values())
        self._stale: Set[int] = set()
        # vertex masks of singleton regions, for the whole search
        self._vertices: Dict[Pair, int] = {}
        # forbidden vertices, one 2^k-bit field per state: codes inside
        # a placed face whose constraint excludes the state, or outside
        # one whose constraint includes it; restored from the stack.
        # Fields start on byte boundaries so a face's vertex mask is
        # copied into every field by repeating its bytes.
        self._width = max(8, 1 << k)
        self._forbid = 0
        self._forbid_stack: List[int] = []
        self._fields: Dict[int, int] = {}
        self._all_states = self._state_fields(universe)
        # per face: its vertex mask copied into every state's field
        self._inside: Dict[Pair, int] = {}

    @property
    def work(self) -> int:
        return self.budget.work

    # -- verification -----------------------------------------------------
    # The checks realize the §3.1 criterion (f(ic) ∩ f(s) ≠ ∅ ⇔ s ∈ ic)
    # incrementally: singleton faces are vertices (codes), each code
    # must lie inside exactly the placed faces whose constraint holds
    # its state (the forbidden masks), and fathers' faces contain their
    # descendants because every candidate is drawn from the fathers'
    # intersection.  The §3.4.3 constraint-vs-constraint equalities are
    # *not* enforced: taken literally they reject satisfiable instances
    # (any triangle of pair constraints), which the real NOVA encodes.
    def _verify(self, ic: int, face: Pair) -> bool:
        """Constraint-face check; no state has a code yet (see class).

        Candidates are never too small: their level is at least the
        constraint's :func:`min_level`.
        """
        if face in self.used:
            return False  # injectivity
        care, val = face
        # sound forward pruning: two constraints sharing a state must get
        # intersecting faces -- the shared state's code will lie in both.
        # Placed ancestors contain the face already and descendants are
        # not placed yet, so only crossing constraints can fail this.
        crossing = self._crossing.get(ic)
        if crossing is None:
            crossing = self._crossing[ic] = [
                o for o in self._constraints
                if o & ic and o & ~ic and ic & ~o]
        enc_get = self.enc.get
        # nova-lint: disable=NV002 -- mask tests against the placed
        # crossing faces; _search charges once per candidate face
        for other in crossing:
            of = enc_get(other)
            if of is not None and (val ^ of[1]) & care & of[0]:
                return False
        return True

    def _assign(self, ic: int, face: Pair) -> None:
        """Place a constraint face and update what depends on it."""
        self.enc[ic] = face
        self.used.add(face)
        self._ready.discard(ic)
        self._touch_children(ic, -1)
        inside = self._inside.get(face)
        if inside is None:
            inside = self._inside[face] = int.from_bytes(
                vertex_mask(self.k, *face).to_bytes(self._width // 8,
                                                    "little")
                * self.ig.n, "little")
        members = self._state_fields(ic)
        everyone = self._all_states
        self._forbid_stack.append(self._forbid)
        self._forbid |= inside & (everyone ^ members) | \
            (inside ^ everyone) & members

    def _undo(self, ic: int) -> None:
        self.used.discard(self.enc.pop(ic))
        self._ready.add(ic)  # its fathers are still placed
        self._touch_children(ic, +1)
        self._forbid = self._forbid_stack.pop()

    def _touch_children(self, ic: int, delta: int) -> None:
        """A father of these nodes changed: recount, or mark stale."""
        constraints, singletons = self._children[ic]
        self._stale.update(singletons)
        pending = self._pending
        for child in constraints:
            count = pending[child]
            pending[child] = count + delta
            if count + delta == 0:
                self._ready.add(child)
            elif count == 0:
                self._ready.discard(child)

    def _mrv_slot(self, ic: int, masks: Optional[Pair]) -> _Slot:
        room = -1 if masks is None else self.k - masks[0].bit_count()
        return room, ic, masks

    def _reslot(self, ic: int) -> None:
        """Recompute a singleton's region and move it in the MRV order."""
        old = self._slot[ic]
        masks = self._region_masks(ic)
        if masks == old[2]:
            return
        new = self._slot[ic] = self._mrv_slot(ic, masks)
        order = self._order
        del order[bisect.bisect_left(order, old)]
        bisect.insort(order, new)

    def _state_fields(self, states: int) -> int:
        """All 2^k bits of each listed state's forbidden-vertex field."""
        out = self._fields.get(states)
        if out is None:
            out = 0
            field = (1 << (1 << self.k)) - 1
            for s in range(self.ig.n):
                if (states >> s) & 1:
                    out |= field << (s * self._width)
            self._fields[states] = out
        return out

    # -- node selection (next_to_code, §3.4.1) ----------------------------
    def _select_next(self, lic: Optional[int]) -> int:
        """The ready constraint node to place next (``_ready`` non-empty)."""
        rank = self._rank
        child_bits = self._child_bits
        lic_bits = child_bits[lic] if lic is not None else 0
        # larger faces first, then category 1, then children sharing
        # with the last placed node
        return min(self._ready, key=lambda ic: (
            *rank[ic], not (child_bits[ic] & lic_bits), ic))

    # -- face generation (assign_face / genface, §3.4.2) -------------------
    def _region_masks(self, ic: int) -> Optional[Pair]:
        """``(care, val)`` of the placed fathers' intersection.

        ``None`` when the fathers' faces are disjoint (empty region).
        """
        care = 0
        val = 0
        enc_get = self.enc.get
        # nova-lint: disable=NV002 -- pure-integer scan of one node's
        # fathers; metered by the search's charge per candidate
        for fa in self._real_fathers[ic]:
            face = enc_get(fa)
            if face is None:
                continue
            fcare, fval = face
            if (val ^ fval) & care & fcare:
                return None
            care |= fcare
            val |= fval
        return care, val

    def _candidate_faces(self, ic: int) -> Iterable[Pair]:
        """Faces for a constraint node, in genface order."""
        level = self._level[ic]
        if level is not None:  # category 1
            faces = level_pairs(self.k, level)
            if len(self.enc) == 1:
                # symmetry breaking: the very first face can be fixed --
                # all faces of one level are hypercube-automorphic
                return itertools.islice(faces, 1)
            return faces
        masks = self._region_masks(ic)
        if masks is None:
            return ()
        # category 2/3: faces inside the region, tightest level first
        return subface_pairs(self.k, masks[0], masks[1], self._low[ic])

    # -- the search --------------------------------------------------------
    def solve(self) -> Optional[Dict[int, Pair]]:
        """Every node's face as ``(care, val)``, or None."""
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
        if not self._ready:
            return self._place_vertices()
        ic = self._select_next(lic)
        charge = self.budget.charge
        for face in self._candidate_faces(ic):
            charge()
            if not self._verify(ic, face):
                continue
            self._assign(ic, face)
            if self._search(ic):
                return True
            self._undo(ic)
        return False

    def _place_vertices(self) -> bool:
        """The vertex phase: every constraint face is placed.

        MRV picks the unplaced singleton with the smallest region,
        ``(k - care.bit_count(), ic)`` with -1 for an empty one.  No
        region changes from here on, so the picks follow the frozen
        ``_order`` and the search is a plain DFS over it.  A region's
        candidate codes are its vertices in increasing order, one
        charge each; the loop visits only the *open* ones (not
        forbidden, not used, not vetoed by an ``io_check`` that has a
        mask form) and charges the skipped ones in bulk by their rank,
        so the work and the trip point equal one charge per candidate.
        """
        k = self.k
        # nova-lint: disable=NV002 -- re-slots the singletons whose
        # fathers changed since the last vertex phase, a few per phase
        for ic in self._stale:
            self._reslot(ic)
        self._stale.clear()
        order = self._order
        vertex_memo = self._vertices
        forbid = self._forbid
        width = self._width
        io_check = self.io_check
        allowed = self._allowed
        codes = self.codes
        charge = self.budget.charge

        def place(depth: int, used: int) -> bool:
            if depth == len(order):
                return self._final_check()
            room, ic, masks = order[depth]
            if masks is None:
                return False  # empty region: no candidate codes
            vertices = vertex_memo.get(masks)
            if vertices is None:
                vertices = vertex_memo[masks] = vertex_mask(k, *masks)
            state = ic.bit_length() - 1
            open_codes = vertices & ~((forbid >> (state * width)) | used)
            if allowed is not None and open_codes:
                open_codes &= allowed(state, codes, k)
            charged = 0
            while open_codes:
                bit = open_codes & -open_codes
                open_codes ^= bit
                # this code's rank among the region's vertices, plus one
                rank = (vertices & (bit - 1)).bit_count() + 1
                charge(rank - charged)
                charged = rank
                code = bit.bit_length() - 1
                if io_check is not None and \
                        not io_check(state, code, codes):
                    continue
                codes[state] = code
                if place(depth + 1, used | bit):
                    return True
                del codes[state]
            if charged < 1 << room:
                charge((1 << room) - charged)  # the codes after the last
            return False

        return place(0, 0)

    def encoding(self) -> Encoding:
        """The state codes of a solved search."""
        return Encoding(self.k, [self.codes[s] for s in range(self.ig.n)])

    def _final_check(self) -> bool:
        """Authoritative face-embedding check on the complete assignment.

        On success the singletons' vertex faces join ``enc``.
        """
        ig = self.ig
        states = list(range(ig.n))
        try:
            codes = [self.codes[s] for s in states]
        except KeyError:
            return False  # some state never received a code
        full = (1 << self.k) - 1
        faces = {ig.universe: self.enc[ig.universe]}
        # nova-lint: disable=NV002 -- runs once per *complete*
        # assignment, after the charged search has already paid for
        # every node that led here
        for ic in ig.non_universe_nodes():
            face = self.enc.get(ic)
            if face is None:  # a singleton: the vertex of its code
                face = (full, codes[ic.bit_length() - 1])
            if not backend.face_members_ok(states, codes, ic, *face):
                return False
            faces[ic] = face
        self.enc = faces
        return True


def pos_equiv(
    ig: InputGraph,
    k: int,
    dimvect: Optional[Dict[int, int]] = None,
    max_work: Optional[int] = None,
    io_check: Optional[IoHook] = None,
    budget: Optional[Budget] = None,
) -> Optional[Encoding]:
    """Decide restricted SUBPOSET EQUIVALENCE; return an encoding if any."""
    engine = _PosEquiv(ig, k, dimvect, max_work, io_check, budget)
    return engine.encoding() if engine.solve() is not None else None


# ----------------------------------------------------------------------
# the exact algorithm (§3.3)
# ----------------------------------------------------------------------
#: total ``pos_equiv`` work of one :func:`iexact_code` sweep.  The
#: builtin machines' sweeps that find a code use at most about 0.34M
#: (physrec; ex5 0.30M), and lion9's and train11's exhaust their level
#: vectors at 3.84M.  The sweeps that used to end at the 30 s time
#: budget (dk15, ex3 and most of paper30's) end here instead, so their
#: outcome does not depend on the speed of the search or of the host.
SWEEP_MAX_WORK = 4_000_000


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
    ``max_work`` / ``max_vectors`` caps and the sweep's total work cap
    :data:`SWEEP_MAX_WORK` make the worst cases give up (returning None)
    exactly as the paper reports for scf and tbk.
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
    spent = 0
    for k in range(mincube_dim(ig), upper + 1):
        for dimvect in _level_vectors(primaries, ig, k, max_vectors):
            own.check_time()
            engine = _PosEquiv(ig, k, dimvect, max_work, budget=own)
            if engine.solve() is not None:
                return engine.encoding()
            spent += engine.work
            if spent > SWEEP_MAX_WORK:
                return None
    return None


def semiexact_code(
    masks: Iterable[int],
    n: int,
    k: int,
    max_work: int = 20_000,
    io_check: Optional[IoHook] = None,
    budget: Optional[Budget] = None,
) -> Optional[Encoding]:
    """Bounded backtrack coding (§4.1): min-level faces, capped work."""
    ig = InputGraph(n, list(masks))
    if mincube_dim(ig) > k:
        return None
    return pos_equiv(ig, k, dimvect=None, max_work=max_work,
                     io_check=io_check, budget=budget)
