"""`iohybrid_code` / `iovariant_code` (§6.2): input + output constraints.

Both run on the (IC, OC) pair produced by symbolic minimization.
``iohybrid_code`` is biased toward input constraints: it first fills SIC
exactly as ihybrid does, then tries to add clusters of output covering
constraints (heaviest first) via ``io_semiexact_code`` — the bounded
backtracking engine with an extra veto hook that rejects a state code
violating an active covering edge.  ``iovariant_code`` accepts a
cluster only when its companion input constraints are satisfied along
with it (§6.2.2); the paper found it weaker, and our benchmarks let you
check that claim.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.constraints.faces import vertex_mask
from repro.constraints.input_constraints import ConstraintSet
from repro.constraints.output_constraints import OutputConstraints
from repro.encoding.base import Encoding, counting_sequence_code
from repro.encoding.iexact import semiexact_code
from repro.encoding.out_encoder import out_encoder
from repro.encoding.project import satisfy_all
from repro.fsm.machine import minimum_code_length


@dataclass
class IoStats:
    """Bookkeeping of one iohybrid/iovariant run."""

    satisfied_ic: List[int] = field(default_factory=list)
    rejected_ic: List[int] = field(default_factory=list)
    satisfied_clusters: List[int] = field(default_factory=list)  # next states
    satisfied_oc_weight: int = 0


@functools.lru_cache(maxsize=1 << 13)
def _covering_mask(k: int, side: int, code: int) -> int:
    """The codes strictly covering *code* (side 0) or strictly covered
    by it (side 1), as a 2^k-bit mask: the legal codes of the other
    endpoint of a covering edge."""
    if side == 0:
        care, val = code, code
    else:
        care, val = ((1 << k) - 1) & ~code, 0
    return vertex_mask(k, care, val) & ~(1 << code)


class _EdgeCheck:
    """Hook enforcing covering edges among already-fixed codes.

    An edge ``(u, v)`` holds when ``u``'s code strictly covers ``v``'s.
    Only the edges incident to the state being placed are tested.  The
    search starts with no codes and asks the hook once per placement,
    so an edge whose endpoints both have codes already passed when its
    later endpoint was placed.  :meth:`allowed` gives every code the
    state may take, from the strict superset and subset masks of its
    neighbours' codes.
    """

    __slots__ = ("_neighbours", "_loops")

    def __init__(self, active_edges: List[Tuple[int, int]]) -> None:
        # per state: (other endpoint, side), side 0 when the state's
        # code must cover the other's, 1 when it must be covered by it
        neighbours: Dict[int, List[Tuple[int, int]]] = {}
        for u, v in active_edges:
            if u != v:
                neighbours.setdefault(u, []).append((v, 0))
                neighbours.setdefault(v, []).append((u, 1))
        self._neighbours = neighbours
        # states with a self-edge: no code covers itself strictly
        self._loops = {u for u, v in active_edges if u == v}

    def allowed(self, state: int, codes: Dict[int, int], k: int) -> int:
        """The codes *state* may take, as a mask with bit c for code c
        (-1, every code, when no placed neighbour restricts it)."""
        if state in self._loops:
            return 0
        out = -1
        for other, side in self._neighbours.get(state, ()):
            code = codes.get(other)
            if code is not None:
                out &= _covering_mask(k, side, code)
        return out


def io_semiexact_code(
    sic: List[int],
    edges: List[Tuple[int, int]],
    n: int,
    k: int,
    max_work: int = 20_000,
) -> Optional[Encoding]:
    """semiexact_code with output-covering rejection (§6.2.1)."""
    return semiexact_code(sic, n, k, max_work=max_work,
                          io_check=_EdgeCheck(edges))


def iohybrid_code(
    cs: ConstraintSet,
    oc: OutputConstraints,
    nbits: Optional[int] = None,
    max_work: int = 20_000,
    stats: Optional[IoStats] = None,
) -> Encoding:
    """Input-biased simultaneous input/output constraint satisfaction."""
    n = cs.n
    min_bits = minimum_code_length(n)
    if nbits is None:
        nbits = min_bits
    if len(cs) == 0:
        edges = oc.all_edges()
        if edges and oc.check_acyclic():
            enc = out_encoder(n, edges)
            if enc.nbits < min_bits:
                enc = Encoding(min_bits, enc.codes)
            # deep dominance chains can explode the code length; the
            # area cost of extra columns then outweighs the rows saved
            # (the lesson of Table II), so fall back to minimum length
            if enc.nbits <= max(min_bits, nbits):
                return enc
        return counting_sequence_code(n, min_bits)

    sic: List[int] = []
    ric: List[int] = []
    enc: Optional[Encoding] = None
    for mask, _w in cs.by_weight():
        attempt = semiexact_code(sic + [mask], n, min_bits, max_work=max_work)
        if attempt is not None:
            enc = attempt
            sic.append(mask)
        else:
            ric.append(mask)

    soc_edges: List[Tuple[int, int]] = []
    satisfied_clusters: List[int] = []
    for cluster in oc.by_weight():
        if not cluster.edges:
            continue
        attempt = io_semiexact_code(sic, soc_edges + cluster.edges, n,
                                    min_bits, max_work=max_work)
        if attempt is not None:
            enc = attempt
            soc_edges.extend(cluster.edges)
            satisfied_clusters.append(cluster.next_state)

    if enc is None:
        enc = counting_sequence_code(n, min_bits)
    enc, sic, ric = satisfy_all(enc, sic, ric, cs, max_bits=nbits)
    if stats is not None:
        stats.satisfied_ic = sic
        stats.rejected_ic = ric
        stats.satisfied_clusters = satisfied_clusters
        stats.satisfied_oc_weight = sum(
            cl.weight for cl in oc.clusters
            if cl.next_state in satisfied_clusters
        )
    return enc


def iovariant_code(
    cs: ConstraintSet,
    oc: OutputConstraints,
    nbits: Optional[int] = None,
    max_work: int = 20_000,
    stats: Optional[IoStats] = None,
) -> Encoding:
    """Cluster-coupled variant: accept IC_i and OC_i together (§6.2.2)."""
    n = cs.n
    min_bits = minimum_code_length(n)
    if nbits is None:
        nbits = min_bits
    if len(cs) == 0 and not oc.is_empty():
        return iohybrid_code(cs, oc, nbits, max_work)

    sic: List[int] = []
    ric: List[int] = []
    enc: Optional[Encoding] = None
    # IC_o first: input constraints tied to proper outputs only
    free = [m for m in oc.free_ic if m in cs.weights]
    for mask in sorted(free, key=lambda m: -cs.weights.get(m, 0)):
        attempt = semiexact_code(sic + [mask], n, min_bits, max_work=max_work)
        if attempt is not None:
            enc = attempt
            sic.append(mask)
        else:
            ric.append(mask)

    soc_edges: List[Tuple[int, int]] = []
    satisfied_clusters: List[int] = []
    for cluster in oc.by_weight():
        ic_i = [m for m in cluster.companion_ic if m not in sic]
        attempt = io_semiexact_code(sic + ic_i, soc_edges + cluster.edges,
                                    n, min_bits, max_work=max_work)
        if attempt is not None:
            enc = attempt
            sic.extend(ic_i)
            soc_edges.extend(cluster.edges)
            satisfied_clusters.append(cluster.next_state)
            ric = [m for m in ric if m not in set(ic_i)]
        else:
            ric.extend(m for m in ic_i if m not in ric)

    # any constraint never offered joins RIC for the projection phase
    offered = set(sic) | set(ric)
    ric.extend(m for m in cs.masks() if m not in offered)

    if enc is None:
        enc = counting_sequence_code(n, min_bits)
    enc, sic, ric = satisfy_all(enc, sic, ric, cs, max_bits=nbits)
    if stats is not None:
        stats.satisfied_ic = sic
        stats.rejected_ic = ric
        stats.satisfied_clusters = satisfied_clusters
        stats.satisfied_oc_weight = sum(
            cl.weight for cl in oc.clusters
            if cl.next_state in satisfied_clusters
        )
    return enc
