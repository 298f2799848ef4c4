"""Serving-layer counters surfaced by ``GET /stats``.

One :class:`ServerStats` instance lives on the
:class:`~repro.server.service.EncodeService` and is mutated from the
event loop only (single-threaded), so plain attribute increments are
race-free.  The snapshot is JSON-safe and additive with the substrate
counters of :mod:`repro.perf` — ``/stats`` reports both, so one scrape
shows cache behaviour, queue pressure, and pipeline work side by side.
"""

from __future__ import annotations

from typing import Dict

#: Counter attributes, all starting at zero.  Grouped by layer:
#: request outcomes, cache tiers, single-flight, admission, workers.
_COUNTERS = (
    # request outcomes (one per /encode request)
    "requests",            # /encode requests accepted for processing
    "ok",                  # clean 200s
    "degraded",            # 200s whose RunReport says a fallback fired
    "overloads",           # 429s (queue full or injected)
    "deadline_expired",    # 504s (hard deadline with no rescue result)
    "client_errors",       # 4xx other than 429 (bad KISS, bad options)
    "server_errors",       # 5xx other than 504
    "slow_clients",        # 408s (request read timed out)
    # cache tiers (cold-path probes, before any work is scheduled)
    "cache_memory_hits",
    "cache_disk_hits",
    "cache_misses",
    "shed",                # warm answers served while the queue was full
    # single-flight
    "leaders",             # computations started (unique fingerprints)
    "coalesced",           # requests attached to an in-flight leader
    "detached",            # waiters that disconnected before the result
    # admission + workers
    "queue_rejects",       # admissions refused (queue at limit)
    "worker_spawns",       # attempts dispatched to a worker
    "worker_starts",       # worker interpreters booted (the rest reused)
    "worker_kills",        # hard wall-clock kills
    "worker_crashes",      # died without reporting (not a kill)
    "ladder_retries",      # server-side rung retries after kill/crash
    "rescues",             # retries granted the emergency allowance
)


class ServerStats:
    """One bag of serving counters plus queue-wait aggregates."""

    __slots__ = _COUNTERS + ("queue_wait_total", "queue_wait_max",
                             "busy_seconds")

    def __init__(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.queue_wait_total = 0.0
        self.queue_wait_max = 0.0
        self.busy_seconds = 0.0

    def record_queue_wait(self, seconds: float) -> None:
        self.queue_wait_total += seconds
        if seconds > self.queue_wait_max:
            self.queue_wait_max = seconds

    def snapshot(self) -> Dict:
        """JSON-safe rendering for ``/stats``."""
        out: Dict = {name: getattr(self, name) for name in _COUNTERS}
        out["queue_wait_total"] = round(self.queue_wait_total, 6)
        out["queue_wait_max"] = round(self.queue_wait_max, 6)
        out["busy_seconds"] = round(self.busy_seconds, 6)
        return out
