"""The encode service: coalescing, admission, degradation, shutdown.

Most tests drive :class:`EncodeService` directly (deterministic: the
single-flight map is installed synchronously, so coroutines gathered in
one event-loop tick coalesce by construction); the HTTP layer gets its
own transport tests; the SIGTERM drain runs ``nova serve`` as a real
subprocess and asserts no orphaned spawn workers by pid.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.encoding.nova import encode_fsm
from repro.encoding.options import EncodeOptions
from repro.errors import (
    DeadlineExceeded,
    OverloadError,
    ServiceError,
    exit_code_for,
)
from repro.fsm.benchmarks import benchmark
from repro import config as config_mod
from repro.server import EncodeService, ServerApp
from repro.testing import faults, sanitize


def run(coro):
    """Every event-loop test funnels through here; under NOVA_SANITIZE
    the loop runs in debug mode with the slow-callback detector armed,
    so synchronous work parked on the loop fails the test by name."""
    if config_mod.sanitize_enabled():
        return sanitize.watched_run(coro)
    return asyncio.run(coro)


def make_service(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("queue_limit", 4)
    kw.setdefault("cache_policy", "memory")
    return EncodeService(**kw)


def strip_provenance(record):
    """A record minus run-specific provenance (timings, cache marks)."""
    out = copy.deepcopy(record)
    out.pop("seconds", None)
    report = out.get("report") or {}
    report.pop("stage_seconds", None)
    report.pop("cache_hit", None)
    return out


SLEEP_FAULT = {"stage": "encode", "action": "sleep", "seconds": 30.0,
               "match": {"algorithm": "iexact"}}


# ----------------------------------------------------------------------
# single-flight coalescing
# ----------------------------------------------------------------------
def test_coalesced_clients_one_spawn_identical_responses():
    """N concurrent identical requests: one worker, N equal answers,
    bit-identical to a solo ``encode_fsm`` run."""
    svc = make_service()
    body = {"machine": "dk27", "options": {"algorithm": "igreedy",
                                           "cache": "memory"}}
    n = 6

    async def burst():
        try:
            return await asyncio.gather(
                *[svc.handle_encode(dict(body)) for _ in range(n)])
        finally:
            svc.shutdown()

    responses = run(burst())
    assert [r.status for r in responses] == [200] * n
    assert svc.stats.worker_spawns == 1
    assert svc.stats.leaders == 1
    assert svc.stats.coalesced == n - 1
    records = [r.body["record"] for r in responses]
    assert all(rec == records[0] for rec in records[1:])
    flags = sorted(r.body["coalesced"] for r in responses)
    assert flags == [False] + [True] * (n - 1)

    solo = encode_fsm(benchmark("dk27"),
                      options=EncodeOptions(algorithm="igreedy",
                                            cache="off"))
    assert strip_provenance(records[0]) == strip_provenance(
        solo.to_record())


def test_waiter_cancellation_detaches_without_killing_leader():
    svc = make_service()
    body = {"machine": "dk27", "options": {"algorithm": "igreedy",
                                           "cache": "memory"}}

    async def scenario():
        try:
            leader = asyncio.ensure_future(svc.handle_encode(dict(body)))
            await asyncio.sleep(0)  # let the leader install the flight
            waiter = asyncio.ensure_future(svc.handle_encode(dict(body)))
            await asyncio.sleep(0.05)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            return await leader
        finally:
            svc.shutdown()

    response = run(scenario())
    assert response.status == 200
    assert svc.stats.worker_spawns == 1
    assert svc.stats.coalesced == 1


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
def test_queue_full_is_prompt_429_with_retry_after():
    svc = make_service(workers=1, queue_limit=0,
                       worker_faults=[SLEEP_FAULT], kill_grace=0.2)

    async def scenario():
        try:
            # distinct fingerprints: no coalescing, all want the queue
            blocker = asyncio.ensure_future(svc.handle_encode({
                "machine": "dk27",
                "options": {"algorithm": "iexact", "cache": "memory",
                            "timeout": 5.0}}))
            await asyncio.sleep(0.3)  # blocker holds the worker slot
            t0 = time.monotonic()
            refused = await svc.handle_encode({
                "machine": "bbara",
                "options": {"algorithm": "igreedy", "cache": "memory"}})
            promptness = time.monotonic() - t0
            blocker.cancel()
            return refused, promptness
        finally:
            svc.shutdown()

    refused, promptness = run(scenario())
    assert refused.status == 429
    assert refused.body["error"]["type"] == "OverloadError"
    assert float(refused.headers["Retry-After"]) >= 1.0
    assert promptness < 0.5  # refusal never waits on the cold path
    assert svc.stats.queue_rejects == 1
    assert svc.stats.overloads == 1


def test_deadline_expires_while_queued():
    svc = make_service(workers=1, queue_limit=2,
                       worker_faults=[SLEEP_FAULT], kill_grace=0.2)

    async def scenario():
        try:
            blocker = asyncio.ensure_future(svc.handle_encode({
                "machine": "dk27",
                "options": {"algorithm": "iexact", "cache": "memory",
                            "timeout": 5.0}}))
            await asyncio.sleep(0.3)
            queued = await svc.handle_encode({
                "machine": "bbara", "options": {
                    "algorithm": "igreedy", "cache": "memory",
                    "timeout": 0.4}})
            blocker.cancel()
            return queued
        finally:
            svc.shutdown()

    queued = run(scenario())
    assert queued.status == 504
    assert queued.body["error"]["type"] == "DeadlineExceeded"
    assert svc.stats.deadline_expired == 1


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
def test_tiny_timeout_degrades_with_provenance_not_error():
    svc = make_service()

    async def scenario():
        try:
            return await svc.handle_encode({
                "machine": "dk16", "options": {
                    "algorithm": "iexact", "cache": "memory",
                    "timeout": 0.02}})
        finally:
            svc.shutdown()

    response = run(scenario())
    assert response.status == 200
    assert response.body["status"] == "degraded"
    report = response.body["record"]["report"]
    assert report["degraded"] is True
    assert report["requested_algorithm"] == "iexact"
    assert report["degradation_reason"]
    assert svc.stats.degraded == 1


def test_hung_worker_is_killed_and_ladder_rescues():
    """A worker stuck past the cooperative budget is hard-killed; the
    server walks to the next rung and still answers 200."""
    svc = make_service(workers=1, queue_limit=2, kill_grace=0.2,
                       rescue_timeout=5.0,
                       worker_faults=[SLEEP_FAULT])

    async def scenario():
        try:
            return await svc.handle_encode({
                "machine": "dk27", "options": {
                    "algorithm": "iexact", "cache": "memory",
                    "timeout": 0.5}})
        finally:
            svc.shutdown()

    response = run(scenario())
    assert response.status == 200
    attempts = response.body["attempts"]
    assert attempts[0]["algorithm"] == "iexact"
    assert attempts[0]["status"] == "killed"
    assert attempts[0]["killed"] == "timeout"
    assert attempts[1]["status"] in ("ok", "degraded")
    # a served attempt carries the same keys as a journaled one
    journal_keys = {"algorithm", "status", "killed", "exitcode", "error",
                    "elapsed", "pid"}
    assert [set(a) for a in attempts] == [journal_keys] * len(attempts)
    assert isinstance(attempts[0]["pid"], int)
    assert svc.stats.worker_kills == 1
    assert svc.stats.ladder_retries >= 1


def test_worker_crash_mid_coalesce_propagates_to_all_waiters():
    crash = {"stage": "encode", "action": "exit", "exit_code": 11,
             "match": {"algorithm": "igreedy"}}
    svc = make_service(workers=1, queue_limit=2, kill_grace=0.2,
                       worker_faults=[crash])
    body = {"machine": "dk27", "options": {
        "algorithm": "igreedy", "cache": "memory", "fallback": False,
        "timeout": 2.0}}

    async def scenario():
        try:
            return await asyncio.gather(
                *[svc.handle_encode(dict(body)) for _ in range(3)])
        finally:
            svc.shutdown()

    responses = run(scenario())
    # fallback=False: a single rung, crashed -> the same 500 for all
    assert {r.status for r in responses} == {500}
    assert {r.body["error"]["type"] for r in responses} == {"ServiceError"}
    assert svc.stats.worker_spawns == 1
    assert svc.stats.worker_crashes == 1


# ----------------------------------------------------------------------
# warm path / load shedding
# ----------------------------------------------------------------------
def test_warm_requests_are_served_while_saturated():
    svc = make_service(workers=1, queue_limit=0,
                       worker_faults=[SLEEP_FAULT], kill_grace=0.2)
    warm_body = {"machine": "dk27", "options": {"algorithm": "igreedy",
                                                "cache": "memory"}}

    async def scenario():
        try:
            first = await svc.handle_encode(dict(warm_body))
            blocker = asyncio.ensure_future(svc.handle_encode({
                "machine": "bbara", "options": {
                    "algorithm": "iexact", "cache": "memory",
                    "timeout": 5.0}}))
            await asyncio.sleep(0.3)
            warm = await svc.handle_encode(dict(warm_body))
            cold = await svc.handle_encode({
                "machine": "dk16", "options": {"algorithm": "igreedy",
                                               "cache": "memory"}})
            blocker.cancel()
            return first, warm, cold
        finally:
            svc.shutdown()

    first, warm, cold = run(scenario())
    assert first.status == 200 and first.body["cache"] is None
    assert warm.status == 200 and warm.body["cache"] == "memory"
    assert strip_provenance(warm.body["record"]) == strip_provenance(
        first.body["record"])
    assert cold.status == 429  # cold path saturated...
    assert svc.stats.shed >= 1  # ...but the warm answer still went out


def test_cold_answer_warms_the_memory_tier_from_its_record():
    """The worker ships the record once, plus the PLA; the warmed
    payload decodes to exactly the record served cold, which matches an
    in-process encode, and the repeat is a memory hit."""
    from repro import cache as cache_mod
    from repro.cache.codec import decode_result

    svc = make_service()
    body = {"machine": "lion9", "options": {"algorithm": "ihybrid",
                                            "cache": "memory"}}

    async def scenario():
        try:
            cold = await svc.handle_encode(dict(body))
            warm = await svc.handle_encode(dict(body))
            return cold, warm
        finally:
            svc.shutdown()

    cold, warm = run(scenario())
    assert cold.status == 200 and cold.body["cache"] is None
    record = cold.body["record"]
    payload = cache_mod.get_cache("memory").memory.get(
        cold.body["fingerprint"])
    assert payload == cache_mod.make_payload(record, payload["pla"])
    assert decode_result(benchmark("lion9"), payload).to_record() == record
    solo = encode_fsm(benchmark("lion9"), "ihybrid", cache="off")
    assert strip_provenance(record) == strip_provenance(solo.to_record())

    assert warm.status == 200 and warm.body["cache"] == "memory"
    assert svc.stats.cache_memory_hits == 1
    assert svc.stats.worker_spawns == 1
    assert strip_provenance(warm.body["record"]) == strip_provenance(record)


def test_worker_outcome_carries_the_record_once():
    from repro.runner.worker import execute

    spec = {"task": "lion9", "machine": "lion9", "algorithm": "ihybrid",
            "kind": "encode", "options": {"cache": "off"}}
    plain = execute(spec)
    warmed = execute(dict(spec, want_payload=True))
    assert "pla" not in plain and "payload" not in plain
    assert "payload" not in warmed
    assert warmed["pla"]["cover"] and warmed["record"]["area"] > 0


def test_degraded_results_are_not_cached():
    svc = make_service()
    body = {"machine": "dk16", "options": {
        "algorithm": "iexact", "cache": "memory", "timeout": 0.02}}

    async def scenario():
        try:
            a = await svc.handle_encode(dict(body))
            b = await svc.handle_encode(dict(body))
            return a, b
        finally:
            svc.shutdown()

    a, b = run(scenario())
    assert a.body["status"] == "degraded"
    assert b.body["cache"] is None  # recomputed, not replayed
    assert svc.stats.cache_misses == 2


# ----------------------------------------------------------------------
# fault injection at the server stages (satellite: faults.py extension)
# ----------------------------------------------------------------------
def test_injected_admit_fault_maps_to_429():
    svc = make_service()
    fault = faults.Fault(stage="admit", exc=OverloadError, times=1)
    with faults.inject(fault):
        response = run(svc.handle_encode({
            "machine": "dk27", "options": {"algorithm": "igreedy",
                                           "cache": "off"}}))
    svc.shutdown()
    assert response.status == 429
    assert svc.stats.overloads == 1


def test_injected_dispatch_fault_maps_to_500():
    svc = make_service()
    fault = faults.Fault(stage="dispatch", exc=ServiceError, times=1)
    with faults.inject(fault):
        response = run(svc.handle_encode({
            "machine": "dk27", "options": {"algorithm": "igreedy",
                                           "cache": "off"}}))
    svc.shutdown()
    assert response.status == 500
    assert response.body["error"]["type"] == "ServiceError"
    assert svc.stats.server_errors == 1


def test_injected_respond_fault_still_answers_json():
    async def scenario():
        svc = make_service()
        app = ServerApp(svc, port=0)
        host, port = await app.start()
        try:
            fault = faults.Fault(stage="respond", exc=ServiceError,
                                 times=1)
            with faults.inject(fault):
                status, body, _headers = await http_request(
                    host, port, "POST", "/encode", {
                        "machine": "dk27", "options": {
                            "algorithm": "igreedy", "cache": "off"}})
            return status, body
        finally:
            await app.shutdown()

    status, body = run(scenario())
    assert status == 500
    assert body["error"]["type"] == "ServiceError"


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
async def http_request(host, port, method, path, payload=None,
                       raw: bytes = None):
    reader, writer = await asyncio.open_connection(host, port)
    if raw is not None:
        writer.write(raw)
    else:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        writer.write(head + body)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    headers = {}
    for line in head.decode().split("\r\n")[1:]:
        if ":" in line:
            k, v = line.split(":", 1)
            headers[k.strip().lower()] = v.strip()
    return status, json.loads(body) if body else {}, headers


def test_http_routes_and_errors():
    async def scenario():
        svc = make_service()
        app = ServerApp(svc, port=0)
        host, port = await app.start()
        try:
            out = {}
            out["healthz"] = await http_request(host, port, "GET",
                                                "/healthz")
            out["stats"] = await http_request(host, port, "GET", "/stats")
            out["notfound"] = await http_request(host, port, "GET",
                                                 "/nope")
            out["badmethod"] = await http_request(host, port, "GET",
                                                  "/encode")
            out["badjson"] = await http_request(
                host, port, "POST", "/encode",
                raw=b"POST /encode HTTP/1.1\r\nContent-Length: 3\r\n"
                    b"\r\n{{{")
            out["badmachine"] = await http_request(
                host, port, "POST", "/encode", {"machine": "nope"})
            out["badopts"] = await http_request(
                host, port, "POST", "/encode",
                {"machine": "dk27", "options": {"algorithm": "wat"}})
            out["encode"] = await http_request(
                host, port, "POST", "/encode",
                {"machine": "dk27", "options": {"algorithm": "igreedy",
                                                "cache": "memory"}})
            return out
        finally:
            await app.shutdown()

    out = run(scenario())
    assert out["healthz"][0] == 200 and out["healthz"][1]["status"] == "ok"
    assert out["stats"][0] == 200 and "requests" in out["stats"][1]
    assert out["notfound"][0] == 404
    assert out["badmethod"][0] == 405
    assert out["badjson"][0] == 400
    assert out["badmachine"][0] == 400
    assert out["badmachine"][1]["error"]["type"] == "ParseError"
    assert out["badopts"][0] == 400
    assert out["badopts"][1]["error"]["type"] == "ConstraintError"
    assert out["encode"][0] == 200
    assert out["encode"][1]["record"]["machine"] == "dk27"


def test_slow_client_gets_408_and_connection_survives():
    async def scenario():
        svc = make_service()
        app = ServerApp(svc, port=0, read_timeout=0.2)
        host, port = await app.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"POST /encode HTTP/1.1\r\n")  # then stall
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            # a well-behaved request still works afterwards
            ok = await http_request(host, port, "GET", "/healthz")
            return data, ok, svc.stats.slow_clients
        finally:
            await app.shutdown()

    data, ok, slow = run(scenario())
    assert b"408" in data.split(b"\r\n", 1)[0]
    assert ok[0] == 200
    assert slow == 1


def test_wedged_drain_is_bounded_and_counted(capsys):
    # regression (found by NV008): writer.drain() was awaited with no
    # deadline, so a peer that stopped reading while our send buffer
    # was full held the handler — and its admission slot — forever
    class WedgedWriter:
        def __init__(self):
            self.closed = False
            self.data = b""

        def write(self, data):
            self.data += data

        async def drain(self):
            await asyncio.sleep(30)

        def close(self):
            self.closed = True

    async def scenario():
        from repro.server.service import EncodeResponse

        svc = make_service()
        app = ServerApp(svc, port=0, drain_timeout=0.05,
                        log_stream=sys.stderr)
        writer = WedgedWriter()
        response = EncodeResponse(200, {"status": "ok"},
                                  log={"outcome": "ok"})
        # bounded: without the wait_for this would sit the full 30s
        await asyncio.wait_for(
            app._write_response(writer, response, "GET", "/healthz",
                                time.monotonic()),
            timeout=5.0)
        return writer, svc.stats.slow_clients

    writer, slow = run(scenario())
    assert slow == 1
    assert writer.closed
    assert writer.data.startswith(b"HTTP/1.1 200")


def test_stats_hook_failure_does_not_leak_admission_slot():
    # regression (found by NV009): the queue-wait stats hook ran
    # between the semaphore acquire and the releasing try, so a raise
    # there leaked the slot and shrank capacity for the process's life
    from repro.server.admission import AdmissionController

    class BoomStats:
        queue_rejects = 0

        def __init__(self):
            self.fail = True

        def record_queue_wait(self, seconds):
            if self.fail:
                raise RuntimeError("stats sink went away")

    async def scenario():
        stats = BoomStats()
        ctl = AdmissionController(workers=1, queue_limit=2, stats=stats)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                async with ctl.admit():
                    pass  # pragma: no cover - never reached
        stats.fail = False
        # the sole slot must have survived both failures: this admit
        # would hit its deadline if either raise had leaked the slot
        async with ctl.admit(deadline=time.monotonic() + 0.2) as wait:
            return wait, ctl.running

    wait, running = run(scenario())
    assert wait >= 0.0
    assert running == 1


# ----------------------------------------------------------------------
# environment validation (NOVA_CACHE)
# ----------------------------------------------------------------------
def test_unknown_nova_cache_is_rejected(monkeypatch):
    monkeypatch.setenv("NOVA_CACHE", "disk")
    with pytest.raises(ValueError, match="NOVA_CACHE"):
        config_mod.cache_policy("auto")
    with pytest.raises(ValueError, match="NOVA_CACHE"):
        config_mod.get_config()
    with pytest.raises(ValueError, match="NOVA_CACHE"):
        make_service()
    monkeypatch.setenv("NOVA_CACHE", "off")
    monkeypatch.setenv("NOVA_CACHE_MAX_BYTES", "lots")
    with pytest.raises(ValueError, match="NOVA_CACHE_MAX_BYTES"):
        config_mod.get_config()
    with pytest.raises(ValueError, match="NOVA_CACHE_MAX_BYTES"):
        make_service()


def test_serve_refuses_to_boot_with_bad_cache_env(monkeypatch, capsys):
    from repro import cli

    monkeypatch.setenv("NOVA_CACHE", "disk")
    rc = cli.main(["serve", "--port", "0"])
    assert rc == 2
    assert "NOVA_CACHE" in capsys.readouterr().err


# ----------------------------------------------------------------------
# error taxonomy additions
# ----------------------------------------------------------------------
def test_service_errors_in_taxonomy():
    from repro.errors import error_from_dict, error_to_dict

    exc = OverloadError("full", retry_after=7.5, queued=8, limit=8)
    clone = error_from_dict(error_to_dict(exc))
    assert isinstance(clone, OverloadError)
    assert exit_code_for(exc) == 8
    assert exit_code_for(DeadlineExceeded("late")) == 8
    assert exit_code_for(ServiceError("boom")) == 8
    assert OverloadError.http_status == 429
    assert DeadlineExceeded.http_status == 504


# ----------------------------------------------------------------------
# SIGTERM drain (subprocess, real signal, orphan check by pid)
# ----------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True


def test_sigterm_mid_burst_drains_and_leaves_no_orphans(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["NOVA_CACHE"] = "off"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "1", "--queue-limit", "2",
         "--default-timeout", "30", "--drain-timeout", "1.0",
         "--fault", json.dumps(SLEEP_FAULT)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env, cwd=str(root))
    try:
        ready = json.loads(proc.stdout.readline())
        assert ready["event"] == "listening"
        port = ready["port"]

        def post_cold():
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as s:
                body = json.dumps({
                    "machine": "dk27",
                    "options": {"algorithm": "iexact", "cache": "off",
                                "timeout": 20.0}}).encode()
                s.sendall(b"POST /encode HTTP/1.1\r\nContent-Length: "
                          + str(len(body)).encode() + b"\r\n\r\n" + body)
                s.settimeout(0.5)
                try:
                    s.recv(65536)
                except socket.timeout:
                    pass

        import threading

        t = threading.Thread(target=post_cold, daemon=True)
        t.start()

        # wait until the hung worker is visible in /stats
        worker_pids = []
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5) as s:
                s.sendall(b"GET /stats HTTP/1.1\r\n\r\n")
                chunks = b""
                while True:
                    chunk = s.recv(65536)
                    if not chunk:
                        break
                    chunks += chunk
            stats = json.loads(chunks.partition(b"\r\n\r\n")[2])
            worker_pids = stats.get("worker_pids") or []
            if worker_pids:
                break
            time.sleep(0.1)
        assert worker_pids, "cold worker never appeared in /stats"
        assert all(_pid_alive(p) for p in worker_pids)

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=15)
        assert rc == 0
        t.join(timeout=5)
        # the drain must have killed the hung spawn worker: no orphans
        deadline = time.monotonic() + 5
        while (time.monotonic() < deadline
               and any(_pid_alive(p) for p in worker_pids)):
            time.sleep(0.1)
        assert not any(_pid_alive(p) for p in worker_pids)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
