"""The encode service: fingerprint, coalesce, admit, dispatch, degrade.

One :class:`EncodeService` owns the three robustness layers the server
is built around, applied in a fixed order per request:

1. **Warm path / load shed.**  Storable requests are fingerprinted
   (PR 4's content address) and probed against the two-tier cache
   *before* admission control, so cache-warm traffic is answered even
   while the cold path is saturated — overload never takes away
   answers the host already has.
2. **Single-flight.**  A cold fingerprint already being computed is
   attached to, not recomputed: N identical concurrent requests cost
   one worker attempt and produce N identical responses.  Waiter
   disconnects detach without killing the shared work
   (:mod:`repro.server.singleflight`).
3. **Admission + degradation.**  Cold leaders pass through the bounded
   queue (:mod:`repro.server.admission`; full queue -> 429), then run
   on a pooled worker process (:mod:`repro.server.pool`) under two
   deadlines: the request timeout maps onto the cooperative
   :class:`~repro.perf.budget.Budget` *inside* the worker — where
   :func:`~repro.encoding.nova.encode_fsm` already walks the
   iexact -> ihybrid -> igreedy -> onehot ladder and reports the
   degradation in its :class:`~repro.encoding.nova.RunReport` — and a
   hard wall-clock kill above it.  If the worker is killed or crashes,
   the *server* walks the same ladder, granting a short rescue
   allowance when the deadline is already gone, so clients get a
   degraded-but-valid encoding with provenance instead of an error
   whenever any rung can still deliver one.

The cooperative timeout shipped to the worker is the *request's*
timeout, untouched by queue wait: the timeout participates in the
cache fingerprint, so shrinking it per-attempt would fragment the
cache key space.  The hard kill (request deadline + grace) is what
actually enforces wall-clock truth.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import cache as cache_mod
from repro.encoding.nova import fallback_chain
from repro.encoding.options import EncodeOptions
from repro.errors import (
    BudgetExhausted,
    ConstraintError,
    DeadlineExceeded,
    EncodingInfeasible,
    ParseError,
    ReproError,
    ServiceError,
    error_from_dict,
    error_to_dict,
)
from repro.fsm.machine import FSM
from repro.server.admission import AdmissionController
from repro.server.pool import WorkerPool
from repro.server.singleflight import SingleFlight
from repro.server.stats import ServerStats
from repro.testing import faults


@dataclass
class EncodeResponse:
    """What one request produced: HTTP status, JSON body, log fields."""

    status: int
    body: Dict[str, Any]
    headers: Dict[str, str] = field(default_factory=dict)
    log: Dict[str, Any] = field(default_factory=dict)


def _status_for(exc: BaseException) -> int:
    """Map a taxonomy error to its HTTP transport status."""
    if isinstance(exc, ServiceError):
        return exc.http_status
    if isinstance(exc, (ParseError, ConstraintError)):
        return 400
    if isinstance(exc, EncodingInfeasible):
        return 422
    if isinstance(exc, BudgetExhausted):
        return 504
    return 500


class EncodeService:
    """The request-handling core, HTTP-agnostic (the app layer wraps it).

    Parameters
    ----------
    workers:
        Concurrent cold computations (worker processes, kept warm for
        reuse between requests).
    queue_limit:
        Cold leaders allowed to wait for a worker slot; the next one
        gets a 429.
    default_timeout / max_timeout:
        Per-request wall-clock deadline applied when the client sends
        none / the cap a client-sent deadline is clamped to.
    kill_grace:
        Seconds past the cooperative deadline before the hard SIGKILL.
    rescue_timeout:
        Emergency allowance granted to degradation rungs after a
        kill/crash ate the whole deadline (graceful degradation beats
        an error as long as any rung can answer).
    worker_faults:
        Serialized :class:`repro.testing.faults.Fault` specs shipped
        into every worker (test/bench harness hook — this is how the
        suite plants hangs and crashes inside the cold path).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 8,
        default_timeout: Optional[float] = None,
        max_timeout: Optional[float] = None,
        kill_grace: float = 2.0,
        rescue_timeout: float = 2.0,
        cache_policy: str = "auto",
        worker_faults: Optional[List[Dict]] = None,
    ) -> None:
        if kill_grace < 0 or rescue_timeout < 0:
            raise ServiceError("kill_grace and rescue_timeout must be >= 0")
        # validate the cache environment eagerly: a typo'd NOVA_CACHE
        # must fail the boot, not the first request
        cache_mod.resolve_policy(cache_policy)
        cache_mod.check_environment()
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        self.kill_grace = kill_grace
        self.rescue_timeout = rescue_timeout
        self.cache_policy = cache_policy
        self.worker_faults = list(worker_faults or [])
        self.stats = ServerStats()
        self.pool = WorkerPool(stats=self.stats)
        self.admission = AdmissionController(workers, queue_limit,
                                             stats=self.stats)
        self.flight = SingleFlight()

    # ------------------------------------------------------------------
    # request parsing
    # ------------------------------------------------------------------
    def _parse_request(
            self, payload: Any) -> Tuple[FSM, Optional[str], EncodeOptions]:
        if not isinstance(payload, dict):
            raise ParseError("request body must be a JSON object",
                             stage="parse")
        kiss_text: Optional[str] = payload.get("kiss")
        bench = payload.get("machine")
        if kiss_text is not None:
            from repro.fsm.kiss import parse_kiss

            if not isinstance(kiss_text, str):
                raise ParseError("'kiss' must be KISS2 source text",
                                 stage="parse")
            fsm = parse_kiss(kiss_text,
                             name=str(payload.get("name") or "request"))
        elif bench:
            from repro.fsm.benchmarks import benchmark, benchmark_names

            if bench not in benchmark_names("all"):
                raise ParseError(
                    f"unknown benchmark machine {bench!r}", stage="parse")
            fsm = benchmark(bench)
        else:
            raise ParseError(
                "request needs 'kiss' (inline KISS2 text) or 'machine' "
                "(builtin benchmark name)", stage="parse")

        raw = dict(payload.get("options") or {})
        for short in ("algorithm", "timeout", "seed"):
            if short in payload and short not in raw:
                raw[short] = payload[short]
        raw.setdefault("cache", self.cache_policy)
        if raw.get("timeout") is None:
            raw["timeout"] = self.default_timeout
        if raw["timeout"] is None:
            raw.pop("timeout")
        elif self.max_timeout is not None:
            raw["timeout"] = min(float(raw["timeout"]), self.max_timeout)
        try:
            opts = EncodeOptions.from_dict(raw)
        except ReproError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConstraintError(f"invalid encode options: {exc}",
                                  stage="parse",
                                  machine=fsm.name) from exc
        return fsm, kiss_text, opts

    # ------------------------------------------------------------------
    # warm path
    # ------------------------------------------------------------------
    def _probe_cache(self, fsm: FSM, opts: EncodeOptions,
                     fp: str) -> Tuple[Optional[Dict], Optional[str]]:
        """(record, tier) from the cache, or (None, None) on a miss.

        Probes the tiers directly (memory, then disk with promotion) so
        the response can say *which* tier answered.
        """
        cache = cache_mod.get_cache(opts.cache)
        if cache is None:
            return None, None
        payload = cache.memory.get(fp)
        tier = "memory" if payload is not None else None
        if payload is None and cache.disk is not None:
            payload, _nbytes = cache.disk.get(fp)
            if payload is not None:
                tier = "disk"
                cache.memory.put(fp, payload)
        if payload is None:
            return None, None
        try:
            result = cache_mod.decode_result(fsm, payload)
        except cache_mod.CacheDecodeError:
            cache.invalidate(fp)
            return None, None
        if result.report is not None:
            result.report.cache_hit = True
        return result.to_record(), tier

    # ------------------------------------------------------------------
    # cold path: admission -> worker ladder
    # ------------------------------------------------------------------
    async def _compute_cold(self, fsm: FSM, kiss_text: Optional[str],
                            opts: EncodeOptions, fp: Optional[str],
                            deadline: Optional[float]) -> Dict:
        """The shared (single-flight) computation for one fingerprint."""
        faults.trip("dispatch", machine=fsm.name,
                    algorithm=opts.algorithm)
        t0 = time.monotonic()
        async with self.admission.admit(deadline,
                                        machine=fsm.name) as queue_wait:
            out = await self._run_ladder(fsm, kiss_text, opts, deadline)
        self.admission.observe_service_time(time.monotonic() - t0)
        self.stats.busy_seconds += time.monotonic() - t0
        out["queue_wait"] = round(queue_wait, 6)
        return out

    def _spec(self, fsm: FSM, kiss_text: Optional[str],
              opts: EncodeOptions, rung: str,
              timeout: Optional[float]) -> Dict:
        options = opts.to_dict()
        options.pop("algorithm")
        options["timeout"] = timeout
        if timeout is None:
            options.pop("timeout")
        return {
            "task": f"{rung}:{fsm.name}",
            "machine": fsm.name,
            "kiss": kiss_text,
            "algorithm": rung,
            "kind": "encode",
            "options": options,
            "want_payload": opts.storable,
            "faults": list(self.worker_faults),
        }

    def _warm_own_cache(self, fsm: FSM, opts: EncodeOptions, rung: str,
                        cooperative: Optional[float],
                        payload: Optional[Dict]) -> None:
        """Put a worker's result payload into this process's memory tier.

        The worker already filled the shared *disk* tier (when the
        policy has one), but its in-process LRU is the worker's, not
        this process's, and dies with it when it retires; without this,
        repeat requests under a memory-only policy would never go
        warm.  The key is recomputed for the options the attempt
        actually ran with — identical to the request fingerprint on the
        first rung, distinct for retry rungs (their algorithm/timeout
        changed, which is correct: they are different pure results).
        """
        if payload is None:
            return
        cache = cache_mod.get_cache(opts.cache)
        if cache is None:
            return
        used = opts.replace(algorithm=rung, timeout=cooperative)
        if not used.storable:
            return
        cache.memory.put(cache_mod.fingerprint(fsm, used), payload)

    async def _run_ladder(self, fsm: FSM, kiss_text: Optional[str],
                          opts: EncodeOptions,
                          deadline: Optional[float]) -> Dict:
        """Dispatch attempts down the degradation ladder until one
        answers.

        A healthy worker degrades *internally* (the cooperative budget
        drives ``encode_fsm``'s own chain), so one attempt usually
        suffices; the server-side walk only advances past workers that
        were hard-killed or crashed.
        """
        rungs = (fallback_chain(opts.algorithm) if opts.fallback
                 else (opts.algorithm,))
        attempts: List[Dict] = []
        for i, rung in enumerate(rungs):
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            cooperative = opts.timeout
            if remaining is not None and remaining <= 0:
                if i == 0:
                    raise DeadlineExceeded(
                        "deadline expired before the first attempt",
                        deadline=opts.timeout, stage="dispatch",
                        machine=fsm.name)
                # the deadline is gone but a weaker rung may still
                # answer almost instantly: grant the rescue allowance
                remaining = self.rescue_timeout
                cooperative = self.rescue_timeout
                self.stats.rescues += 1
            if i > 0:
                # retry rungs run under what's left, not the original
                # allowance (their fingerprints differ from the request
                # anyway — the algorithm changed)
                cooperative = remaining
                self.stats.ladder_retries += 1
            hard = (None if remaining is None
                    else remaining + self.kill_grace)
            spec = self._spec(fsm, kiss_text, opts, rung, cooperative)
            self.stats.worker_spawns += 1
            outcome = await self.pool.run(spec, hard)
            status = outcome.get("status")
            attempts.append({
                "algorithm": rung,
                "status": status,
                "killed": outcome.get("killed"),
                "exitcode": outcome.get("exitcode"),
                "elapsed": outcome.get("elapsed"),
            })
            if status in ("ok", "degraded"):
                self._warm_own_cache(fsm, opts, rung, cooperative,
                                     outcome.get("payload"))
                return {"status": status,
                        "record": outcome.get("record"),
                        "perf": outcome.get("perf") or {},
                        "attempts": attempts}
            if status == "error":
                rebuilt = error_from_dict(outcome["error"])
                raise rebuilt
            if status == "killed":
                self.stats.worker_kills += 1
                if outcome.get("killed") == "shutdown":
                    raise ServiceError("server shutting down",
                                       stage="dispatch", machine=fsm.name)
            elif status == "crashed":
                self.stats.worker_crashes += 1
        path = " -> ".join(a["algorithm"] for a in attempts)
        if any(a.get("killed") == "timeout" for a in attempts):
            raise DeadlineExceeded(
                f"every degradation rung was killed or crashed ({path})",
                deadline=opts.timeout, stage="dispatch", machine=fsm.name)
        raise ServiceError(
            f"every degradation rung crashed ({path})",
            stage="dispatch", machine=fsm.name)

    # ------------------------------------------------------------------
    # the request entry point
    # ------------------------------------------------------------------
    async def handle_encode(self, payload: Any) -> EncodeResponse:
        t0 = time.monotonic()
        self.stats.requests += 1
        log: Dict[str, Any] = {"fingerprint": None, "cache": None,
                               "coalesced": False, "queue_wait": None,
                               "fallback_stage": None}
        try:
            fsm, kiss_text, opts = self._parse_request(payload)
        except ReproError as exc:
            return self._error_response(exc, t0, log)
        log["machine"] = fsm.name
        log["algorithm"] = opts.algorithm
        deadline = (None if opts.timeout is None else t0 + opts.timeout)
        fp = (cache_mod.fingerprint(fsm, opts) if opts.storable else None)
        log["fingerprint"] = fp

        # 1. warm path (and load shed: runs even while saturated)
        if fp is not None:
            record, tier = self._probe_cache(fsm, opts, fp)
            if record is not None:
                if tier == "memory":
                    self.stats.cache_memory_hits += 1
                else:
                    self.stats.cache_disk_hits += 1
                if self.admission.saturated:
                    self.stats.shed += 1
                return self._result_response(record, t0, log, cache=tier)
            self.stats.cache_misses += 1

        # 2./3. cold path: coalesce, admit, dispatch
        coalesced = False
        try:
            if fp is None:
                computed = await self._compute_cold(fsm, kiss_text, opts,
                                                    fp, deadline)
            else:
                call = self.flight.lookup(fp)
                if call is None:
                    call = self.flight.launch(
                        fp, lambda: self._compute_cold(
                            fsm, kiss_text, opts, fp, deadline))
                    self.stats.leaders += 1
                else:
                    self.stats.coalesced += 1
                    coalesced = True
                waiter = self.flight.wait(call)
                if deadline is not None:
                    try:
                        computed = await asyncio.wait_for(
                            waiter, timeout=max(0.0,
                                                deadline - time.monotonic())
                            + self.kill_grace + 1.0)
                    except (asyncio.TimeoutError, TimeoutError):
                        self.stats.detached += 1
                        raise DeadlineExceeded(
                            "deadline expired waiting for the coalesced "
                            "computation", deadline=opts.timeout,
                            stage="dispatch", machine=fsm.name) from None
                else:
                    computed = await waiter
        except ReproError as exc:
            return self._error_response(exc, t0, log, machine=fsm.name)
        log["coalesced"] = coalesced
        log["queue_wait"] = computed.get("queue_wait")
        return self._result_response(
            computed["record"], t0, log, cache=None, coalesced=coalesced,
            attempts=computed.get("attempts"),
            queue_wait=computed.get("queue_wait"))

    # ------------------------------------------------------------------
    # response assembly
    # ------------------------------------------------------------------
    def _result_response(self, record: Dict, t0: float, log: Dict,
                         cache: Optional[str], coalesced: bool = False,
                         attempts: Optional[List[Dict]] = None,
                         queue_wait: Optional[float] = None
                         ) -> EncodeResponse:
        report = record.get("report") or {}
        degraded = bool(report.get("degraded"))
        requested = report.get("requested_algorithm")
        final = record.get("algorithm")
        if degraded or (requested and final and requested != final):
            log["fallback_stage"] = final
        outcome = "degraded" if degraded else "ok"
        log["outcome"] = outcome
        log["cache"] = cache
        if degraded:
            self.stats.degraded += 1
        else:
            self.stats.ok += 1
        faults.trip("respond", machine=str(log.get("machine")),
                    outcome=outcome)
        body = {
            "status": outcome,
            "record": record,
            "cache": cache,
            "coalesced": coalesced,
            "fingerprint": log.get("fingerprint"),
            "elapsed": round(time.monotonic() - t0, 6),
        }
        if attempts:
            body["attempts"] = attempts
        if queue_wait is not None:
            body["queue_wait"] = queue_wait
        return EncodeResponse(200, body, log=log)

    def _error_response(self, exc: ReproError, t0: float, log: Dict,
                        machine: Optional[str] = None) -> EncodeResponse:
        status = _status_for(exc)
        headers: Dict[str, str] = {}
        if status == 429:
            self.stats.overloads += 1
            retry = getattr(exc, "retry_after", None) or 1.0
            headers["Retry-After"] = str(int(max(1.0, retry) + 0.5))
            log["outcome"] = "overload"
        elif status == 504:
            self.stats.deadline_expired += 1
            log["outcome"] = "deadline"
        elif 400 <= status < 500:
            self.stats.client_errors += 1
            log["outcome"] = "invalid"
        else:
            self.stats.server_errors += 1
            log["outcome"] = "error"
        body = {
            "status": "error",
            "error": error_to_dict(exc),
            "elapsed": round(time.monotonic() - t0, 6),
        }
        if "Retry-After" in headers:
            body["retry_after"] = float(headers["Retry-After"])
        return EncodeResponse(status, body, headers=headers, log=log)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """The ``/stats`` payload: serving counters + live gauges."""
        out = self.stats.snapshot()
        out["in_flight"] = len(self.flight)
        out["queued"] = self.admission.queued
        out["running"] = self.admission.running
        out["saturated"] = self.admission.saturated
        out["worker_pids"] = self.pool.live_pids()
        out["retry_after_estimate"] = round(self.admission.retry_after(), 3)
        return out

    def shutdown(self) -> int:
        """Kill the cold path (workers); returns workers killed."""
        return self.pool.shutdown()
