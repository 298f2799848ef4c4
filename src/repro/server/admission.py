"""Admission control: a bounded waiting room in front of the workers.

Cold encodes are expensive (a worker process each); unbounded
acceptance under a burst would stack up queued work far beyond any
client's patience and take the event loop down with it.  The controller
enforces two numbers:

* ``workers`` — cold computations actually running (worker processes);
* ``queue_limit`` — leaders allowed to *wait* for a worker slot.

A request that would push the waiting line past ``queue_limit`` is
refused immediately with :class:`~repro.errors.OverloadError` (HTTP
429) and a ``Retry-After`` estimate derived from the observed service
time — refusal is O(1) and never blocks, which is what keeps 429s
prompt while the pool is saturated.  Warm (cache-hit) traffic never
enters the controller at all: the service answers it before admission,
which is the load-shed path.

Deadlines hold in the queue too: a leader whose wall-clock deadline
expires while waiting gives up its place and fails with
:class:`~repro.errors.DeadlineExceeded` rather than occupying a slot
it can no longer use.
"""

from __future__ import annotations

import asyncio
import time
from typing import AsyncIterator, Optional

from contextlib import asynccontextmanager

from repro.errors import DeadlineExceeded, OverloadError, ServiceError
from repro.server.stats import ServerStats
from repro.testing import faults


class AdmissionController:
    """Bounded queue + worker-slot semaphore with a Retry-After model."""

    def __init__(self, workers: int, queue_limit: int,
                 stats: Optional[ServerStats] = None) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if queue_limit < 0:
            raise ServiceError(
                f"queue_limit must be >= 0, got {queue_limit}")
        self.workers = workers
        self.queue_limit = queue_limit
        self.stats = stats
        self._slots = asyncio.Semaphore(workers)
        self._running = 0
        self._queued = 0
        # exponential moving average of cold service time, seeding the
        # Retry-After estimate; starts at 1s so the first refusals are
        # already sane
        self._avg_service = 1.0

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        return self._queued

    @property
    def running(self) -> int:
        return self._running

    @property
    def saturated(self) -> bool:
        """True while new cold work would be refused."""
        return self._queued + self._running >= self.workers + self.queue_limit

    def retry_after(self) -> float:
        """Seconds until capacity plausibly frees up.

        The whole waiting line plus the running jobs must drain through
        ``workers`` slots; each job takes about the moving-average
        service time.  Clamped to [1, 120] — precise backoff matters
        less than being monotone in queue depth.
        """
        depth = self._queued + self._running
        estimate = (depth / max(1, self.workers)) * self._avg_service
        return min(120.0, max(1.0, estimate))

    def observe_service_time(self, seconds: float) -> None:
        """Fold one completed cold computation into the EMA."""
        self._avg_service += 0.2 * (seconds - self._avg_service)

    # ------------------------------------------------------------------
    @asynccontextmanager
    async def admit(self, deadline: Optional[float] = None,
                    machine: str = "") -> AsyncIterator[float]:
        """Hold a worker slot for the block; yields the queue wait.

        Raises :class:`OverloadError` synchronously when the waiting
        line is full, :class:`DeadlineExceeded` when *deadline* (an
        absolute ``time.monotonic()`` instant) passes before a slot
        frees up.
        """
        faults.trip("admit", machine=machine)
        # capacity check on *admitted* work (waiting + running), not on
        # the waiting line alone: ``_running`` is bumped only after the
        # semaphore acquire completes, so a same-tick burst would
        # otherwise slip past a free-slot check before anyone acquires.
        # queue_limit=0 thus means "workers slots, nobody ever waits".
        if self._queued + self._running >= self.workers + self.queue_limit:
            if self.stats is not None:
                self.stats.queue_rejects += 1
            raise OverloadError(
                "cold-path queue is full",
                retry_after=self.retry_after(),
                queued=self._queued, limit=self.queue_limit,
                stage="admit", machine=machine or None)
        self._queued += 1
        t0 = time.monotonic()
        try:
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - t0)
            try:
                await asyncio.wait_for(self._slots.acquire(),
                                       timeout=timeout)
            except (asyncio.TimeoutError, TimeoutError):
                raise DeadlineExceeded(
                    "deadline expired while queued for a worker slot",
                    deadline=timeout, stage="admit",
                    machine=machine or None) from None
        finally:
            self._queued -= 1
        # The slot is ours from here on: enter the releasing try before
        # touching anything that can raise (stats hooks), or an
        # exception in the gap leaks the slot and shrinks capacity for
        # the life of the process.
        try:
            wait = time.monotonic() - t0
            if self.stats is not None:
                self.stats.record_queue_wait(wait)
            self._running += 1
            try:
                yield wait
            finally:
                self._running -= 1
        finally:
            self._slots.release()
