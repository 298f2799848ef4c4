"""Latency/throughput snapshot of the encode service (BENCH_PR7.json).

Boots the service in-process (real HTTP over loopback, real worker
processes) and measures the four serving regimes against each other:

* **cold**     — distinct fingerprints, empty cache: every request
  pays admission + one worker attempt + the full pipeline (only the
  first attempts on each worker pay its interpreter start-up);
* **warm**     — the same requests again: answered from the in-process
  memory tier, no admission, no worker;
* **coalesced**— N concurrent clients, one fresh fingerprint: one
  worker attempt serves all N;
* **uncoalesced baseline** — the same N requests strictly one after
  another with the cache off: what coalescing saves;
* **overload** — a burst of cold requests against one worker and a
  short queue: how fast the 429s come back while the slot is busy.

``worker_spawns`` counts attempts dispatched to a worker,
``worker_starts`` the worker interpreters actually booted.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --out BENCH_PR7.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.fsm.benchmarks import benchmark_names
from repro.server import EncodeService, ServerApp

MACHINES = ("dk27", "dk17", "dk14", "bbara", "dk16", "shiftreg")


async def request(host: str, port: int,
                  payload: Dict) -> Tuple[int, Dict, float]:
    t0 = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(payload).encode()
    writer.write((f"POST /encode HTTP/1.1\r\n"
                  f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, raw = data.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(raw), time.perf_counter() - t0


def percentiles(samples: List[float]) -> Dict:
    xs = sorted(samples)
    return {
        "n": len(xs),
        "mean_ms": round(statistics.mean(xs) * 1000, 3),
        "p50_ms": round(xs[len(xs) // 2] * 1000, 3),
        "max_ms": round(xs[-1] * 1000, 3),
    }


async def bench(machines: List[str], coalesce_n: int) -> Dict:
    out: Dict = {}

    # --- cold vs warm ------------------------------------------------
    svc = EncodeService(workers=2, queue_limit=8, cache_policy="memory")
    app = ServerApp(svc, port=0, log_stream=open("/dev/null", "w"))
    host, port = await app.start()
    body = lambda m: {"machine": m,                      # noqa: E731
                      "options": {"algorithm": "igreedy",
                                  "cache": "memory"}}
    cold: List[float] = []
    t0 = time.perf_counter()
    for m in machines:
        status, payload, dt = await request(host, port, body(m))
        assert status == 200 and payload["cache"] is None, (m, status)
        cold.append(dt)
    cold_wall = time.perf_counter() - t0
    warm: List[float] = []
    t0 = time.perf_counter()
    for m in machines:
        status, payload, dt = await request(host, port, body(m))
        assert status == 200 and payload["cache"] == "memory", (m, status)
        warm.append(dt)
    warm_wall = time.perf_counter() - t0
    out["cold"] = percentiles(cold)
    out["cold"]["throughput_rps"] = round(len(machines) / cold_wall, 2)
    out["warm"] = percentiles(warm)
    out["warm"]["throughput_rps"] = round(len(machines) / warm_wall, 2)
    out["warm_speedup"] = round(out["cold"]["mean_ms"]
                                / max(out["warm"]["mean_ms"], 1e-9), 1)

    # --- coalesced vs uncoalesced ------------------------------------
    fresh = {"machine": machines[0],
             "options": {"algorithm": "ihybrid", "cache": "memory"}}
    t0 = time.perf_counter()
    results = await asyncio.gather(
        *[request(host, port, dict(fresh)) for _ in range(coalesce_n)])
    coalesced_wall = time.perf_counter() - t0
    assert all(status == 200 for status, _p, _dt in results)
    spawns_for_burst = svc.stats.worker_spawns - len(machines)
    out["coalesced"] = {
        "clients": coalesce_n,
        "worker_spawns": spawns_for_burst,
        # interpreters booted over the whole cold/warm/coalesced run
        "worker_starts": svc.stats.worker_starts,
        "wall_ms": round(coalesced_wall * 1000, 3),
        **{k: v for k, v in percentiles(
            [dt for _s, _p, dt in results]).items() if k != "n"},
    }
    await app.shutdown()

    svc2 = EncodeService(workers=2, queue_limit=8, cache_policy="off")
    app2 = ServerApp(svc2, port=0, log_stream=open("/dev/null", "w"))
    host2, port2 = await app2.start()
    nocache = {"machine": machines[0],
               "options": {"algorithm": "ihybrid", "cache": "off"}}
    t0 = time.perf_counter()
    for _ in range(coalesce_n):
        status, _payload, _dt = await request(host2, port2, dict(nocache))
        assert status == 200
    uncoalesced_wall = time.perf_counter() - t0
    await app2.shutdown()
    out["uncoalesced"] = {
        "clients": coalesce_n,
        "worker_spawns": svc2.stats.worker_spawns,
        "worker_starts": svc2.stats.worker_starts,
        "wall_ms": round(uncoalesced_wall * 1000, 3),
    }
    out["coalescing_speedup"] = round(
        uncoalesced_wall / max(coalesced_wall, 1e-9), 1)

    # --- overload ----------------------------------------------------
    svc3 = EncodeService(workers=1, queue_limit=1, cache_policy="off",
                         worker_faults=[{
                             "stage": "encode", "action": "sleep",
                             "seconds": 3.0}],
                         kill_grace=0.5)
    app3 = ServerApp(svc3, port=0, log_stream=open("/dev/null", "w"))
    host3, port3 = await app3.start()
    burst = [{"machine": m,
              "options": {"algorithm": "igreedy", "cache": "off",
                          "timeout": 2.0}} for m in machines]
    results = await asyncio.gather(
        *[request(host3, port3, b) for b in burst])
    statuses = sorted(s for s, _p, _dt in results)
    rejects = [dt for s, _p, dt in results if s == 429]
    out["overload"] = {
        "burst": len(burst),
        "statuses": statuses,
        "rejected": len(rejects),
        "reject_latency_ms": (percentiles(rejects) if rejects else None),
    }
    await app3.shutdown()
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="write the JSON snapshot here")
    parser.add_argument("--coalesce-n", type=int, default=8)
    args = parser.parse_args(argv)

    machines = [m for m in MACHINES if m in benchmark_names("all")]
    snapshot = {
        "bench": "encode-service",
        "machines": machines,
        "python": sys.version.split()[0],
        **asyncio.run(bench(machines, args.coalesce_n)),
    }
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
