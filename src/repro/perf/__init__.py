"""Lightweight performance counters for the minimization substrate.

The hot paths of the two-level minimizer (``repro.logic``) and the
embedding engine (``repro.encoding.iexact``) increment counters on the
module-global :data:`STATS` object.  When collection is off, ``STATS``
is ``None`` and every instrumentation site reduces to one attribute
load plus an ``is None`` test — cheap enough to leave in the hot loops
permanently.

Three ways to turn collection on:

* programmatically::

      from repro import perf
      with perf.collect() as stats:
          espresso(on, dc)
      print(stats.summary())

* the ``nova --stats <command> ...`` CLI flag, which prints a summary
  to stderr after the command;
* the runtime config (:mod:`repro.config`): ``perf = true`` in a
  ``$NOVA_CONFIG`` file — or ``NOVA_PERF=1`` — enables a process-global collector at import time (the CLI prints
  it too).

Counters are plain attributes (see :class:`PerfStats`); wall-clock
timers accumulate into ``stats.timers`` via :func:`timer`.
"""

from __future__ import annotations

from contextlib import contextmanager
import time
from typing import Dict, Iterator, Optional

from repro import config as config_mod
from repro.errors import BudgetExhausted
from repro.perf.budget import Budget, BudgetExceeded

__all__ = [
    "Budget",
    "BudgetExceeded",
    "BudgetExhausted",
    "PerfStats",
    "STATS",
    "collect",
    "enabled",
    "snapshot",
    "timer",
]

_COUNTERS = (
    "tautology_calls",      # top-level tautology() invocations
    "urp_recursions",       # URP steps of tautology + complement + sccc
    "urp_max_depth",        # deepest Shannon recursion seen
    "unate_reductions",     # unate / missing-value short-cuts (all three)
    "complement_calls",     # top-level complement() invocations
    "cofactor_calls",       # Cover.cofactor invocations
    "contains_calls",       # Cover.contains_cube invocations
    "contains_memo_hits",   # ... answered from the bounded memo cache
    "scc_calls",            # single_cube_containment invocations
    "scc_dropped",          # cubes removed by single-cube containment
    "kernel_batch_calls",   # whole-cover kernel invocations (logic.backend)
    "expand_cubes",         # cubes grown by _expand_cube
    "expand_raises",        # successful raises during expansion
    "expand_attempts",      # attempted raises during expansion
    "espresso_passes",      # reduce/expand/irredundant iterations
    "lastgasp_attempts",    # LASTGASP retries after a non-improving pass
    "lastgasp_wins",        # ... that found a strictly better cover
    "pos_equiv_work",       # backtracking work charged by pos_equiv
    "cache_hit",            # encode-cache lookups answered from a tier
    "cache_miss",           # ... that fell through to a full recompute
    "cache_bytes",          # blob bytes moved to/from the disk tier
    "modules_compiled",     # modules a worker compiled (repro._codemap)
)


class PerfStats:
    """One bag of substrate counters plus named wall-clock timers."""

    __slots__ = _COUNTERS + ("timers",)

    def __init__(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.timers: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def merge(self, flat: Dict[str, float]) -> None:
        """Fold an :meth:`as_dict` snapshot from another collector in.

        The batch runner aggregates per-worker counters with this:
        counts and timers add; ``urp_max_depth`` (a high-water mark)
        takes the max.  Unknown keys are ignored so snapshots from
        other versions still merge.
        """
        for name, value in flat.items():
            if name.startswith("time_"):
                self.add_time(name[len("time_"):], float(value))
            elif name == "urp_max_depth":
                self.urp_max_depth = max(self.urp_max_depth, int(value))
            elif name in _COUNTERS:
                setattr(self, name, getattr(self, name) + int(value))

    def as_dict(self) -> Dict[str, float]:
        """Counters and timers as one flat dict (timers in seconds)."""
        out: Dict[str, float] = {name: getattr(self, name)
                                 for name in _COUNTERS}
        for name, secs in sorted(self.timers.items()):
            out[f"time_{name}"] = round(secs, 6)
        return out

    def summary(self) -> str:
        """Human-readable multi-line rendering of the non-zero entries."""
        lines = ["substrate perf counters:"]
        for name, value in self.as_dict().items():
            if value:
                lines.append(f"  {name:20s} {value}")
        if len(lines) == 1:
            lines.append("  (all zero)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: v for k, v in self.as_dict().items() if v}
        return f"PerfStats({nonzero})"


# The active collector; ``None`` means collection is off.  Hot paths
# read this through the module (``perf.STATS``) so :func:`collect` can
# swap it.
STATS: Optional[PerfStats] = (PerfStats() if config_mod.perf_enabled()
                              else None)


def enabled() -> bool:
    """True when a collector is currently installed."""
    return STATS is not None


def snapshot() -> Optional[Dict[str, float]]:
    """Flat dict of the active collector's counters, or ``None``."""
    return None if STATS is None else STATS.as_dict()


@contextmanager
def collect() -> Iterator[PerfStats]:
    """Install a fresh collector for the duration of the block.

    Nesting is allowed; the innermost collector receives the counts and
    the previous one is restored on exit.  The yielded object stays
    valid (and readable) after the block.
    """
    global STATS
    prev = STATS
    STATS = stats = PerfStats()
    try:
        yield stats
    finally:
        STATS = prev


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Accumulate the block's wall time into ``STATS.timers[name]``.

    A no-op (without even reading the clock) when collection is off.
    """
    stats = STATS
    if stats is None:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stats.add_time(name, time.perf_counter() - t0)
