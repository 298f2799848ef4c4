"""A unified work/deadline budget for the search and minimization loops.

Historically every bounded loop carried its own ad-hoc limit:
``iexact_code`` had a wall-clock deadline checked only *between* level
vectors, ``pos_equiv`` had a work counter, and ``espresso`` had no
bound at all.  :class:`Budget` unifies the three — one object holds an
optional work cap and an optional deadline, and can spawn children
that share the deadline while metering their own work (the paper's
per-call ``max_work`` semantics).

Exhaustion raises :class:`repro.errors.BudgetExhausted` (re-exported
here under its historical name :data:`BudgetExceeded`), carrying the
budget's stage label and work counters so a caller — or the driver's
fallback chain — can tell *which* limit tripped where.  Work-cap
exhaustion is part of the bounded-search algorithms and is normally
caught at the call site; time exhaustion (``exc.limit == "time"``)
means the whole run is out of time and should propagate.

Time is read through ``time.monotonic`` but only every
:data:`_TIME_CHECK_MASK` + 1 charges, so charging stays cheap inside
tight backtracking loops.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator, Optional

from repro.errors import BudgetExhausted

# historical name: Budget.charge used to raise its own BudgetExceeded
BudgetExceeded = BudgetExhausted

_TIME_CHECK_MASK = 0xFF  # check the clock every 256 charges


class Budget:
    """Work counter plus wall-clock deadline; either may be absent.

    Parameters
    ----------
    seconds:
        Wall-clock allowance from now (converted to a deadline).
    work:
        Maximum number of :meth:`charge` units.
    deadline:
        Absolute ``time.monotonic()`` deadline; overrides *seconds*.
    stage:
        Label naming the pipeline stage this budget meters; attached to
        the :class:`BudgetExhausted` raised on exhaustion.
    """

    __slots__ = ("deadline", "max_work", "work", "stage")

    def __init__(
        self,
        seconds: Optional[float] = None,
        work: Optional[int] = None,
        deadline: Optional[float] = None,
        stage: Optional[str] = None,
    ) -> None:
        if deadline is None and seconds is not None:
            deadline = time.monotonic() + seconds
        self.deadline = deadline
        self.max_work = work
        self.work = 0
        self.stage = stage

    def sub(self, work: Optional[int] = None,
            stage: Optional[str] = None) -> "Budget":
        """A child budget: own work meter, shared absolute deadline."""
        return Budget(work=work, deadline=self.deadline,
                      stage=stage or self.stage)

    def child(self, fraction: float, stage: Optional[str] = None) -> "Budget":
        """A proportional sub-budget: *fraction* of what remains.

        The child gets its own deadline at ``fraction`` of the
        remaining wall-clock time and its own work cap at ``fraction``
        of the remaining work, so a pipeline can hand each stage a
        bounded share of the run's allowance instead of letting the
        first stage eat everything.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        seconds = None
        if self.deadline is not None:
            seconds = max(0.0, self.deadline - time.monotonic()) * fraction
        work = None
        if self.max_work is not None:
            work = max(0, int((self.max_work - self.work) * fraction))
        return Budget(seconds=seconds, work=work, stage=stage or self.stage)

    def charge(self, n: int = 1) -> None:
        """Consume *n* units; raise :class:`BudgetExhausted` when over.

        ``charge(n)`` behaves like *n* unit charges: it trips when the
        work passes the cap, leaving ``work`` one past it as the tripping
        unit charge would, and it polls the deadline when the work
        crosses a multiple of the polling interval.  The deadline is
        polled only every few hundred units, so a charging loop overruns
        the wall-clock limit by at most one polling interval.
        """
        old = self.work
        work = self.work = old + n
        if self.max_work is not None and work > self.max_work:
            self.work = max(old, self.max_work) + 1
            raise BudgetExhausted(
                f"work limit {self.max_work} exceeded",
                limit="work", work=self.work, max_work=self.max_work,
                stage=self.stage,
            )
        if (
            self.deadline is not None
            and old | _TIME_CHECK_MASK < work
            and time.monotonic() > self.deadline
        ):
            raise BudgetExhausted(
                "deadline exceeded",
                limit="time", work=work, max_work=self.max_work,
                stage=self.stage,
            )

    def check_time(self) -> None:
        """Raise :class:`BudgetExhausted` if the deadline has passed.

        Unlike :meth:`charge` this always polls the clock; use it at
        stage boundaries where one check per call is the right rate.
        """
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhausted(
                "deadline exceeded",
                limit="time", work=self.work, max_work=self.max_work,
                stage=self.stage,
            )

    def expired(self) -> bool:
        """True when either limit has been crossed (always polls time)."""
        if self.max_work is not None and self.work > self.max_work:
            return True
        return self.deadline is not None and time.monotonic() > self.deadline

    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the deadline (may be negative); None if unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Budget(work={self.work}/{self.max_work}, "
                f"remaining={self.remaining_seconds()}, "
                f"stage={self.stage!r})")


# ----------------------------------------------------------------------
# ambient budget: metering for loops with no budget in scope
# ----------------------------------------------------------------------
#: The budget :func:`tick` charges, installed by :func:`ambient`.
#: ``None`` (the default) makes every tick a near-free no-op, so leaf
#: helpers — the espresso passes, the URP recursions — can tick
#: unconditionally without threading a ``budget=`` parameter through
#: every signature.
_AMBIENT: Optional[Budget] = None


def tick(n: int = 1) -> None:
    """Charge the ambient budget, if one is installed.

    The deadline-only budgets that :func:`ambient` installs make a tick
    a pure liveness poll: it can interrupt a runaway loop but never
    changes *what* a bounded search computes, so adding ticks to a
    helper cannot perturb cached results.
    """
    b = _AMBIENT
    if b is not None:
        b.charge(n)


@contextlib.contextmanager
def ambient(budget: Optional[Budget]) -> Iterator[None]:
    """Install *budget* as the ambient tick target for this block.

    Only the budget's *deadline* is shared with the ambient view — its
    work cap stays private to the explicit ``charge()`` call sites, so
    the paper's ``max_work`` search-size semantics are unchanged no
    matter how many ticks run inside the block.  Nesting restores the
    previous ambient budget on exit.  ``ambient(None)`` is a no-op
    block, convenient for optional-budget call sites.
    """
    global _AMBIENT
    if budget is None or budget.deadline is None:
        yield
        return
    prev = _AMBIENT
    _AMBIENT = Budget(deadline=budget.deadline, stage=budget.stage)
    try:
        yield
    finally:
        _AMBIENT = prev
