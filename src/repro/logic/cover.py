"""Covers: sets of positional cubes sharing one :class:`~repro.logic.cube.Format`."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import perf
from repro.logic import backend
from repro.logic.cube import Format

# Bounded memo for contains_cube (see Cover.contains_cube).  The key is
# (format parts, cube tuple, queried cube): building it is O(n) but a
# hit saves a full URP tautology run, which dominates irredundant and
# the tautology-oracle expand.  The cache is flushed wholesale when it
# fills — the workloads are bursts of queries against a handful of
# covers, so LRU bookkeeping buys nothing over a flush.
CONTAINS_MEMO = True
_CONTAINS_MEMO_MAX = 8192
_contains_memo: Dict[Tuple, bool] = {}
_memo_scope_depth = 0


def clear_contains_memo() -> None:
    """Drop all memoized containment answers (mostly for benchmarks)."""
    _contains_memo.clear()


@contextmanager
def contains_memo_scope() -> Iterator[None]:
    """Scope the containment memo to one unit of work.

    The memo is module-level state: left alone, answers cached during
    one ``encode_fsm`` run would leak into the next, making a run's
    observable behaviour (perf counters, memo pressure, flush timing)
    depend on what happened to run before it in the same process.
    ``encode_fsm`` wraps each encode in this scope, which clears the
    memo on entry and exit of the *outermost* scope only — nested
    scopes (fallback chains re-entering the encoder) keep the intra-run
    hit rate intact.
    """
    global _memo_scope_depth
    _memo_scope_depth += 1
    if _memo_scope_depth == 1:
        _contains_memo.clear()
    try:
        yield
    finally:
        _memo_scope_depth -= 1
        if _memo_scope_depth == 0:
            _contains_memo.clear()


class Cover:
    """An ordered list of non-empty cubes over a common format.

    The class is deliberately lightweight: cubes are plain integers and
    most algorithms work on ``cover.cubes`` directly.  Methods that
    return covers always return new objects; nothing mutates in place
    except :meth:`append`.
    """

    __slots__ = ("fmt", "cubes")

    def __init__(self, fmt: Format, cubes: Optional[Iterable[int]] = None):
        self.fmt = fmt
        self.cubes: List[int] = []
        if cubes is not None:
            for c in cubes:
                self.append(c)

    # ------------------------------------------------------------------
    # basic container behaviour
    # ------------------------------------------------------------------
    def append(self, cube: int) -> None:
        """Append *cube*, silently dropping empty cubes."""
        if not self.fmt.is_empty(cube):
            self.cubes.append(cube)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.cubes)

    def __getitem__(self, idx: int) -> int:
        return self.cubes[idx]

    def copy(self) -> "Cover":
        out = Cover(self.fmt)
        out.cubes = list(self.cubes)
        return out

    def __add__(self, other: "Cover") -> "Cover":
        if other.fmt != self.fmt:
            raise ValueError("cannot concatenate covers with different formats")
        out = self.copy()
        out.cubes.extend(other.cubes)
        return out

    def __repr__(self) -> str:
        return f"Cover({len(self.cubes)} cubes, {self.fmt!r})"

    def to_strings(self) -> List[str]:
        return [self.fmt.cube_to_str(c) for c in self.cubes]

    # ------------------------------------------------------------------
    # cover algebra
    # ------------------------------------------------------------------
    def cofactor(self, against: int) -> "Cover":
        """Cofactor every cube against *against*, dropping empty results."""
        stats = perf.STATS
        if stats is not None:
            stats.cofactor_calls += 1
        out = Cover(self.fmt)
        out.cubes = backend.cofactor(self.fmt, self.cubes, against)
        return out

    def intersect_cube(self, cube: int) -> "Cover":
        """Intersect every cube with *cube*, dropping empty results."""
        out = Cover(self.fmt)
        out.cubes = backend.intersect_cube(self.fmt, self.cubes, cube)
        return out

    def contain_any(self, cube: int) -> bool:
        """True when some *single* cube of the cover contains *cube*.

        Cheaper than :meth:`contains_cube` (no tautology call) and the
        common fast path of the iterated-consensus containment filter.
        """
        return backend.contain_any(self.fmt, self.cubes, cube)

    def single_cube_containment(self) -> "Cover":
        """Drop every cube contained in another single cube of the cover.

        Duplicates collapse first, then candidates are visited in
        decreasing minterm-count order (containers first) with the cube
        value as a deterministic tie-break: equal-count cubes cannot
        contain one another, so the tie order never changes *which*
        cubes survive, but pinning it keeps the output order — and
        everything downstream of it — independent of set iteration
        order across processes and hash seeds.
        """
        stats = perf.STATS
        if stats is not None:
            stats.scc_calls += 1
        n_in = len(self.cubes)
        if n_in <= 1:
            return self.copy()
        kept = backend.single_cube_containment(self.fmt, self.cubes)
        if stats is not None:
            stats.scc_dropped += n_in - len(kept)
        out = Cover(self.fmt)
        out.cubes = kept
        return out

    def contains_cube(self, cube: int) -> bool:
        """True when the cover covers every minterm of *cube*.

        Answers are memoized in a bounded module-level cache: the
        reduce/expand/irredundant loop and the tautology-oracle expand
        re-ask the same (cover, cube) questions many times per pass.
        """
        from repro.logic.urp import tautology

        stats = perf.STATS
        if stats is not None:
            stats.contains_calls += 1
        if not CONTAINS_MEMO:
            return tautology(self.cofactor(cube))
        key = (self.fmt.parts, tuple(self.cubes), cube)
        hit = _contains_memo.get(key)
        if hit is not None:
            if stats is not None:
                stats.contains_memo_hits += 1
            return hit
        result = tautology(self.cofactor(cube))
        if len(_contains_memo) >= _CONTAINS_MEMO_MAX:
            _contains_memo.clear()
        _contains_memo[key] = result
        return result

    def covers(self, other: "Cover") -> bool:
        """True when this cover covers every cube of *other*."""
        return all(self.contains_cube(c) for c in other.cubes)

    def is_tautology(self) -> bool:
        from repro.logic.urp import tautology

        return tautology(self)

    # ------------------------------------------------------------------
    # cost measures
    # ------------------------------------------------------------------
    def literal_cost(self) -> int:
        """Espresso-convention literal count: lower is a better cover.

        Input planes (every variable but the last) charge one literal
        per *excluded* value — a binary ``0``/``1`` costs 1, don't-care
        costs 0.  The last variable is the multi-output plane
        (ESPRESSO-MV convention, see :mod:`repro.logic.cube`): there a
        cube is charged one literal per *asserted* output, so a cube
        driving 2 of 3 outputs costs 2, not the 1 the zero-count would
        give.
        """
        fmt = self.fmt
        out_var = fmt.num_vars - 1
        out_mask = fmt.masks[out_var]
        cost = 0
        for c in self.cubes:
            inputs = c & ~out_mask
            # input literals: zeros in the input planes
            cost += (fmt.universe & ~out_mask & ~inputs).bit_count()
            # output literals: asserted outputs in the output plane
            cost += (c & out_mask).bit_count()
        return cost

    def cost(self) -> tuple:
        """(#cubes, literal cost) — the espresso improvement criterion."""
        return (len(self.cubes), self.literal_cost())


def from_strings(fmt: Format, rows: Sequence[str]) -> Cover:
    """Build a cover from :meth:`Format.cube_to_str`-style rows."""
    return Cover(fmt, (fmt.cube_from_str(r) for r in rows))
