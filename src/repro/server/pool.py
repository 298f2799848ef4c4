"""The service's worker pool: isolated encodes with a hard kill.

A cold request's attempt runs on a :class:`repro.runner.worker.Worker`
— the batch runner's worker handle and :func:`child_main` loop, reused
unchanged, so every property that module guarantees (JSON-only pipe
transport, exception-proof reporting, orphan-safe sends, the retire
rule) holds here too.  Workers outlive requests: one that finished an
attempt ``ok``/``degraded`` without armed faults waits idle for the
next cold request, so only the first attempts pay interpreter
start-up.  The deadline watch and outcome classification are that
module's :class:`~repro.runner.worker.Attempt` too.  What the pool adds
is the *async* shape: the blocking watch runs in a thread via
``asyncio.to_thread``, so the event loop keeps serving warm traffic
while workers grind, and a shutdown check between poll slices.

The hard wall-clock kill sits **above** the cooperative
:class:`~repro.perf.budget.Budget` the request's deadline maps onto
(DESIGN §6.6): the budget degrades a healthy pipeline gracefully inside
the worker; the kill bounds the unhealthy one — a stuck C-level loop,
an allocation storm — that never reaches a budget check.  SIGKILL, not
SIGTERM: a wedged worker may not run Python again.

Shutdown is synchronous and total: :meth:`shutdown` refuses new work,
SIGKILLs every worker, idle or busy, and joins it, so a served SIGTERM
can guarantee "no orphaned workers" to its supervisor.
"""

from __future__ import annotations

import asyncio
from multiprocessing import get_context
import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.runner.worker import Attempt, Worker, take_idle, watch
from repro.server.stats import ServerStats

#: ``outcome["killed"]`` marker of an attempt cut short by shutdown.
KILLED_SHUTDOWN = "shutdown"

#: How often the polling thread re-checks the shutdown flag (seconds).
_POLL_INTERVAL = 0.1


class WorkerPool:
    """Reusable spawn-context workers, registered so shutdown can kill
    them all.

    The pool itself sets no size: admission control bounds concurrent
    attempts, and so the number of workers, idle or busy.
    """

    def __init__(self, stats: Optional[ServerStats] = None) -> None:
        self._ctx = get_context("spawn")
        self.stats = stats
        self._idle: List[Worker] = []
        self._busy: Dict[int, Worker] = {}  # pid -> worker
        self._lock = threading.Lock()
        self._closing = threading.Event()

    # ------------------------------------------------------------------
    @property
    def closing(self) -> bool:
        return self._closing.is_set()

    def live_pids(self) -> List[int]:
        """PIDs of the pool's workers, idle and busy (for /stats and
        tests)."""
        with self._lock:
            return sorted([w.pid for w in self._idle] + list(self._busy))

    # ------------------------------------------------------------------
    async def run(self, spec: Dict,
                  hard_timeout: Optional[float]) -> Dict:
        """Run one worker attempt off-loop; returns the outcome dict.

        The outcome is either the worker's own report (``status`` of
        ``ok``/``degraded``/``error``) or a parent-side classification:
        ``killed`` (``"timeout"`` or ``"shutdown"``) for a hard kill,
        ``crashed`` for a death without a report.  Raises
        :class:`ServiceError` only when the pool is already shutting
        down.
        """
        outcome, started = await asyncio.to_thread(
            self._run_blocking, spec, hard_timeout)
        if started and self.stats is not None:
            self.stats.worker_starts += 1  # on the loop thread
        return outcome

    def _checkout(self, machine: Optional[str]) -> Tuple[Worker, bool]:
        """An idle live worker, or a freshly started one; registered as
        busy.  Returns (worker, started)."""
        with self._lock:
            if self._closing.is_set():
                raise ServiceError("worker pool is shutting down",
                                   stage="dispatch", machine=machine)
            worker = take_idle(self._idle)
        started = worker is None
        if worker is None:
            worker = Worker(self._ctx)
        with self._lock:
            self._busy[worker.pid] = worker
            closing = self._closing.is_set()
        if closing:  # shutdown ran while this worker was starting
            self._checkin(worker)
            raise ServiceError("worker pool is shutting down",
                               stage="dispatch", machine=machine)
        return worker, started

    def _checkin(self, worker: Worker) -> None:
        """Unregister a worker after its attempt: keep it idle if it may
        be reused and the pool is not shutting down, else retire it."""
        with self._lock:
            self._busy.pop(worker.pid, None)
            keep = worker.reusable and not self._closing.is_set()
            if keep:
                self._idle.append(worker)
        if not keep:
            worker.retire(kill=True)

    def _run_blocking(self, spec: Dict,
                      hard_timeout: Optional[float]) -> Tuple[Dict, bool]:
        worker, started = self._checkout(spec.get("machine"))
        try:
            return self._watch(Attempt(worker, spec, hard_timeout)), started
        finally:
            self._checkin(worker)

    def _watch(self, attempt: Attempt) -> Dict:
        """The shared attempt watcher, plus the pool's shutdown check."""
        while not self._closing.is_set():
            for _, outcome in watch([attempt], _POLL_INTERVAL):
                if outcome["status"] == "crashed" and self._closing.is_set():
                    break  # killed by shutdown()
                return outcome
        return attempt.kill(KILLED_SHUTDOWN)

    # ------------------------------------------------------------------
    def shutdown(self) -> int:
        """Refuse new work, SIGKILL and join every worker, idle or busy.

        Returns how many live workers were killed.  Idempotent; safe to
        call from any thread (and from a signal-driven shutdown path).
        A busy worker's pool thread sees the flag and releases its pipe.
        """
        self._closing.set()
        with self._lock:
            idle, self._idle = self._idle, []
            busy = list(self._busy.values())
        killed = sum(worker.alive() for worker in idle + busy)
        for worker in idle:
            worker.retire(kill=True)
        for worker in busy:
            worker.kill()
        return killed
