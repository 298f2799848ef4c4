"""The four workloads: table, embedding, serve and batch.

Each ``run_<name>(seed, seconds, trace, work)`` returns a :class:`Run`.
Timings are taken by this benchmark around the program's public entry
points and scaled to the reference speed of :mod:`calibrate`; with
``trace`` on, :mod:`spans` also times each pipeline layer from outside
and the program's own substrate counters are collected.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from calibrate import slowdown, startup_slowdown
from common import machines, record_ok, reference, signature, summary
from spans import STAGES, Tracer

HERE = Path(__file__).resolve().parent

#: substrate counters reported per op by traced runs (repro.perf names)
COUNTERS = ("espresso_passes", "tautology_calls", "urp_recursions",
            "pos_equiv_work")

#: embedding algorithms exercised by the embedding workload
EMBED_ALGORITHMS = ("ihybrid", "iohybrid", "igreedy")

#: generated machines checked against an in-process reference encode
#: after a serve or batch run
REFERENCE_SAMPLE = 24

#: busy seconds between two host-speed probes in the serial workloads
RECALIBRATE_S = 0.25


@dataclass
class Run:
    """What one workload run measured (times at the reference speed)."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


class Clock:
    """Op timings of a serial loop, scaled to the reference speed.

    The host speed is probed between segments of about
    :data:`RECALIBRATE_S` busy seconds; the ops of a segment are scaled
    by the mean of the two probes around it.
    """

    def __init__(self) -> None:
        self.factors = [slowdown()]
        self.latencies: List[float] = []
        self.busy = 0.0       # wall seconds spent in ops
        self.scaled = 0.0     # the same, at the reference speed
        self.ok_wall = 0.0    # wall seconds of the successful ops
        self._segment: List[Tuple[float, bool]] = []

    def record(self, seconds: float, ok: bool) -> None:
        self._segment.append((seconds, ok))
        self.busy += seconds
        if sum(dt for dt, _ in self._segment) >= RECALIBRATE_S:
            self._close()

    def _close(self) -> None:
        if not self._segment:
            return
        self.factors.append(slowdown())
        factor = (self.factors[-2] + self.factors[-1]) / 2
        for seconds, ok in self._segment:
            if ok:
                self.latencies.append(seconds / factor)
                self.ok_wall += seconds
            self.scaled += seconds / factor
        self._segment = []

    def summary(self) -> Dict[str, float]:
        self._close()
        return summary(self.latencies, self.scaled)

    def layers(self, tracer: Tracer, stats) -> Dict[str, float]:
        """Layer split of the successful ops (the traced loop's ops).

        With no successful op every figure is 0; the failures are in
        the run's ``failed`` count.
        """
        self._close()
        ops = max(1, len(self.latencies))
        factor = statistics.median(self.factors)
        print(f"host slowdown {factor:.3f}", file=sys.stderr)
        scale = 1000.0 / factor
        out = {f"{s}_ms": tracer.seconds[s] * scale / ops for s in STAGES}
        out["overhead_ms"] = (self.ok_wall - tracer.stage_sum()) * scale / ops
        for name in COUNTERS:
            out[name] = getattr(stats, name) / ops
        out.update(cache_hit_ratio=0.0, coalesced_ratio=0.0,
                   spawns_per_op=0.0, queue_wait_ms=0.0)
        return out


def _mean(xs) -> float:
    """Mean of *xs*, 0.0 when there is none."""
    return statistics.mean(xs) if xs else 0.0


@contextlib.contextmanager
def _traced(trace: bool):
    """(tracer, perf stats) with spans installed, or (None, None)."""
    if not trace:
        yield None, None
        return
    from repro import perf

    tracer = Tracer()
    with tracer.installed(), perf.collect() as stats:
        yield tracer, stats


def _kiss_inputs(seed: int, prefix: str, shapes, count: int):
    """*count* seeded machines as (name, KISS text) pairs."""
    from repro.fsm.kiss import to_kiss

    stream = machines(seed, prefix, shapes)
    return [(fsm.name, to_kiss(fsm)) for fsm in
            (next(stream) for _ in range(count))]


def _replay(items, algorithm: str, budget_s: float):
    """Encode (name, kiss) items in-process until *budget_s* is spent.

    Serve and batch compute inside worker processes, where the spans
    cannot reach; a traced run replays the machines it served here to
    split the compute into layers.  Returns the clock, tracer and stats.
    """
    from repro.api import EncodeOptions, encode_fsm
    from repro.fsm.kiss import parse_kiss

    opts = EncodeOptions(algorithm=algorithm, cache="off")
    with _traced(True) as (tracer, stats):
        clock = Clock()
        for name, text in items:
            if clock.busy > budget_s:
                break
            t0 = time.perf_counter()
            with tracer.span("parse"):
                fsm = parse_kiss(text, name=name)
            encode_fsm(fsm, options=opts)
            clock.record(time.perf_counter() - t0, True)
    return clock, tracer, stats


def _check_references(items, records: Dict[str, Dict],
                      algorithm: str) -> bool:
    """Compare served/journaled records with in-process encodes."""
    from repro.fsm.kiss import parse_kiss

    ok = True
    for name, text in items[:REFERENCE_SAMPLE]:
        if name not in records:
            continue
        fsm = parse_kiss(text, name=name)
        record = records[name]
        ok &= record_ok(fsm, record)
        ok &= signature(record) == signature(reference(fsm, algorithm))
    return ok


# ----------------------------------------------------------------------
# table: rows of the paper's Tables II-IV on the small benchmark set
# ----------------------------------------------------------------------
def table_rows():
    """Table number -> row function, as the table workload runs them."""
    from repro.eval import tables

    return {
        2: lambda name: tables.table2_row(name, include_iexact=False),
        3: tables.table3_row,
        4: tables.table4_row,
    }


def run_table(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    from repro.fsm.benchmarks import benchmark

    golden = json.loads((HERE / "golden_tables.json").read_text())
    kinds = sorted(golden)
    rows = table_rows()
    for kind in kinds:  # build the machines before timing
        benchmark(kind.split(":")[1])
    rng = random.Random(seed)
    run, order = Run(), []
    with _traced(trace) as (tracer, stats):
        clock = Clock()
        # whole passes only: every run times the same rows, in seeded order
        while clock.busy < seconds or order:
            if not order:
                order = kinds[:]
                rng.shuffle(order)
            kind = order.pop()
            table, name = kind.split(":")
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                row = rows[int(table)](name)
            except Exception as exc:  # a failed row is counted, not fatal
                clock.record(time.perf_counter() - t0, False)
                print(f"{kind}: {exc!r}", file=sys.stderr)
                run.failed += 1
                continue
            clock.record(time.perf_counter() - t0, True)
            if json.loads(json.dumps(row)) != golden[kind]:
                print(f"{kind}: row differs from golden", file=sys.stderr)
                run.correct = False
    run.metrics = clock.summary()
    if trace:
        run.layers = clock.layers(tracer, stats)
    return run


# ----------------------------------------------------------------------
# embedding: parse + encode of fresh generated controllers
# ----------------------------------------------------------------------
def run_embedding(seed: int, seconds: float, trace: bool,
                  work: Path) -> Run:
    from repro.api import EncodeOptions, encode_fsm
    from repro.fsm.kiss import parse_kiss, to_kiss

    binary = machines(seed, "m", ("binary",))
    symbolic = machines(seed + 1, "s", ("symbolic",))
    encode_fsm(next(binary), options=EncodeOptions(cache="off"))  # warm-up
    run, i = Run(), 0
    with _traced(trace) as (tracer, stats):
        clock = Clock()
        while clock.busy < seconds:
            # a fixed rotation of shapes and algorithms: a random mix
            # would move the percentiles from one seed to the next
            generated = next(symbolic if i % 2 else binary)
            algorithm = EMBED_ALGORITHMS[i % len(EMBED_ALGORITHMS)]
            i += 1
            text = to_kiss(generated)
            opts = EncodeOptions(algorithm=algorithm, cache="off")
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                with (tracer.span("parse") if trace
                      else contextlib.nullcontext()):
                    fsm = parse_kiss(text, name=generated.name)
                result = encode_fsm(fsm, options=opts)
            except Exception as exc:
                clock.record(time.perf_counter() - t0, False)
                print(f"{generated.name}: {exc!r}", file=sys.stderr)
                run.failed += 1
                continue
            clock.record(time.perf_counter() - t0, True)
            if not record_ok(fsm, result.to_record()):
                print(f"{generated.name}: bad result", file=sys.stderr)
                run.correct = False
    run.metrics = clock.summary()
    if trace:
        run.layers = clock.layers(tracer, stats)
    return run


# ----------------------------------------------------------------------
# serve: closed-loop clients against a `nova serve` process
# ----------------------------------------------------------------------
# A synthetic mix of the serving regimes benchmarks/bench_service.py
# measures one at a time (warm, cold, coalesced), interleaved.  Three
# times as many clients as workers, so cold requests wait in admission;
# every fresh machine is handed out twice in a row, so its second request
# arrives while the first is in flight and coalesces onto it; every 3rd
# request of a client is for a cached machine.  The queue limit admits
# every client, so no request is refused.
SERVE_CLIENTS = 6
SERVE_WORKERS = 2
SERVE_QUEUE_LIMIT = 8
#: the cached machines: bench_service.py's set, less the two whose
#: ihybrid encode takes seconds (bbara, dk16)
SERVE_HOT = ("dk27", "dk17", "dk14", "shiftreg")
SERVE_HIT_EVERY = 3    # each client's every 3rd request is a cached machine
SERVE_SEGMENTS = 10    # load phases, with a host-speed probe between
SERVE_ALGORITHM = "ihybrid"


class Server:
    """A ``nova serve`` child process on an ephemeral port."""

    def __init__(self, work: Path, tag: str) -> None:
        self.log = open(work / f"serve-{tag}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(SERVE_WORKERS),
             "--queue-limit", str(SERVE_QUEUE_LIMIT),
             "--cache", "memory",
             "--default-timeout", "60"],
            stdout=subprocess.PIPE, stderr=self.log, text=True, cwd=work)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("nova serve exited before listening")
        self.port = json.loads(line)["port"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.log.close()


async def _http(port: int, method: str, path: str,
                payload: Optional[Dict] = None) -> Tuple[int, Dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        writer.write(f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, raw = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(raw)


def _encode_body(name: str, text: str) -> Dict:
    return {"kiss": text, "name": name,
            "options": {"algorithm": SERVE_ALGORITHM, "cache": "memory"}}


def serve_cold_start(work: Path, tag: str) -> float:
    """Boot a server and get its first (cold) answer; wall seconds."""
    from repro.fsm.benchmarks import benchmark
    from repro.fsm.kiss import to_kiss

    body = _encode_body("lion", to_kiss(benchmark("lion")))
    t0 = time.perf_counter()
    server = Server(work, tag)
    try:
        status, _ = asyncio.run(_http(server.port, "POST", "/encode", body))
        elapsed = time.perf_counter() - t0
    finally:
        server.close()
    if status != 200:
        raise RuntimeError(f"first request answered {status}")
    return elapsed


async def _warm_up(port: int, hot) -> Dict[str, Dict]:
    """Fill the server's memory tier; the answers for each hot machine."""
    answers = await asyncio.gather(*(
        _http(port, "POST", "/encode", _encode_body(name, text))
        for name, text in hot))
    warm = {}
    for (name, _), (status, body) in zip(hot, answers):
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")
        warm[name] = body["record"]
    return warm


def _paired(seed: int) -> Iterator[Tuple[str, str]]:
    """Endless fresh machines as (name, KISS text), each one twice."""
    from repro.fsm.kiss import to_kiss

    for fsm in machines(seed, "cold", ("binary",)):
        item = (fsm.name, to_kiss(fsm))
        yield item
        yield item


async def _serve_load(port: int, seed: int, seconds: float, hot,
                      cold: Dict[str, str]):
    """Closed loop: each client sends its next request on a reply.

    Fresh machines are drawn from an endless stream and rendered to
    KISS before a request's clock starts; *cold* collects them.  The
    load runs in segments; clients drain between segments while the
    host speed is probed, and each segment's times are scaled by the
    mean of the probes around it.  Returns (samples, scaled wall, mean
    scale factor).
    """
    samples: List[Tuple[float, str, int, Dict]] = []
    fresh = _paired(seed + 1)
    rngs = [random.Random(seed * 100 + k) for k in range(SERVE_CLIENTS)]
    counts = [0] * SERVE_CLIENTS

    async def client(k: int, deadline: float, out) -> None:
        # a fixed cold share: its randomness would move every figure
        rng = rngs[k]
        while time.perf_counter() < deadline:
            counts[k] += 1
            if (counts[k] + k) % SERVE_HIT_EVERY == 0:
                name, text = hot[rng.randrange(len(hot))]
            else:
                name, text = next(fresh)
                cold[name] = text
            t0 = time.perf_counter()
            try:
                status, body = await _http(port, "POST", "/encode",
                                           _encode_body(name, text))
            except (OSError, ValueError) as exc:
                status, body = 0, {"error": repr(exc)}
            out.append((time.perf_counter() - t0, name, status, body))

    wall = 0.0
    factors = []
    before = startup_slowdown()
    for _ in range(SERVE_SEGMENTS):
        segment: List[Tuple[float, str, int, Dict]] = []
        t0 = time.perf_counter()
        deadline = t0 + seconds / SERVE_SEGMENTS
        await asyncio.gather(*(client(k, deadline, segment)
                               for k in range(SERVE_CLIENTS)))
        elapsed = time.perf_counter() - t0
        after = startup_slowdown()
        factor = (before + after) / 2
        before = after
        factors.append(factor)
        wall += elapsed / factor
        samples += [(dt / factor, *rest) for dt, *rest in segment]
    return samples, wall, statistics.mean(factors)


def run_serve(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    from repro.fsm.benchmarks import benchmark
    from repro.fsm.kiss import to_kiss

    loop_s = seconds * (0.6 if trace else 1.0)
    hot = [(name, to_kiss(benchmark(name))) for name in SERVE_HOT]
    cold: Dict[str, str] = {}
    run = Run()
    server = Server(work, "load")
    try:
        warm = asyncio.run(_warm_up(server.port, hot))
        _, before = asyncio.run(_http(server.port, "GET", "/stats"))
        samples, wall, factor = asyncio.run(
            _serve_load(server.port, seed, loop_s, hot, cold))
        _, after = asyncio.run(_http(server.port, "GET", "/stats"))
    finally:
        server.close()

    served: Dict[str, Dict] = {}
    leader_lat = []
    for dt, name, status, body in samples:
        run.attempted += 1
        if status != 200 or body.get("status") != "ok":
            run.failed += 1
            continue
        record = body["record"]
        if name in warm:
            run.correct &= signature(record) == signature(warm[name])
        elif name in served:  # both answers for a fresh machine agree
            run.correct &= signature(record) == signature(served[name])
        else:
            served[name] = record
        if name not in warm and body.get("cache") is None \
                and not body.get("coalesced"):
            leader_lat.append(dt)
    run.correct &= _check_references(hot, warm, SERVE_ALGORITHM)
    cold_done = [(name, text) for name, text in cold.items()
                 if name in served]
    run.correct &= _check_references(cold_done, served, SERVE_ALGORITHM)
    run.metrics = summary([s[0] for s in samples if s[2] == 200], wall)
    if trace:
        clock, tracer, stats = _replay(cold_done, SERVE_ALGORITHM,
                                       seconds - loop_s)
        delta = {k: after[k] - before[k] for k in (
            "requests", "cache_memory_hits", "cache_disk_hits", "coalesced",
            "worker_spawns", "leaders", "queue_wait_total")}
        requests = max(1, delta["requests"])
        run.layers = clock.layers(tracer, stats)
        run.layers.update(
            # a leader's wait in admission + spawn + transport
            overhead_ms=(_mean(leader_lat) - _mean(clock.latencies))
            * 1000.0 if leader_lat else 0.0,
            cache_hit_ratio=(delta["cache_memory_hits"]
                             + delta["cache_disk_hits"]) / requests,
            coalesced_ratio=delta["coalesced"] / requests,
            spawns_per_op=delta["worker_spawns"] / requests,
            queue_wait_ms=(delta["queue_wait_total"] * 1000.0 / factor
                           / max(1, delta["leaders"])))
    return run


# ----------------------------------------------------------------------
# batch: repeated BatchRunner runs over generated KISS files
# ----------------------------------------------------------------------
BATCH_TASKS = 16
BATCH_JOBS = 2
BATCH_ALGORITHM = "ihybrid"


def run_batch(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    from repro.runner import BatchRunner, BatchTask

    loop_s = seconds * (0.6 if trace else 1.0)
    # spawn-bound: a batch task takes well over 100 ms
    items = _kiss_inputs(seed, "b", ("binary",),
                         BATCH_TASKS * (int(loop_s) + 2))
    kiss_dir = work / "kiss"
    kiss_dir.mkdir()
    paths = {}
    for name, text in items:
        paths[name] = kiss_dir / f"{name}.kiss"
        paths[name].write_text(text)

    # untimed warm-up: the first spawns after start-up run cold
    BatchRunner([BatchTask(m, options={"cache": "off"})
                 for m in ("lion", "dk27")],
                work / "warm-up", jobs=BATCH_JOBS, retries=0).run()
    run, lat, queue_waits = Run(), [], []
    records: Dict[str, Dict] = {}
    attempts = mismatched = 0
    elapsed = wall = 0.0
    before = startup_slowdown()
    for k in range(0, len(items), BATCH_TASKS):
        if elapsed >= loop_s:
            break
        chunk = items[k:k + BATCH_TASKS]
        tasks = [BatchTask(str(paths[name]), algorithm=BATCH_ALGORITHM,
                           options={"cache": "off"}) for name, _ in chunk]
        finished: Dict[str, float] = {}

        def progress(line: str, finished=finished) -> None:
            finished[line.rsplit(": ", 1)[0]] = time.perf_counter()

        t0 = time.perf_counter()
        report = BatchRunner(tasks, work / f"run{k}", jobs=BATCH_JOBS,
                             retries=0, progress=progress).run()
        batch_s = time.perf_counter() - t0
        after = startup_slowdown()
        factor = (before + after) / 2
        before = after
        elapsed += batch_s
        wall += batch_s / factor
        run.attempted += len(tasks)
        # The runner starts queued tasks in order, one per freed slot:
        # the first BATCH_JOBS at t0, each later one when a task ends.
        # A task's latency runs from its slot's start to the callback
        # that follows its journal write; the journal's own "elapsed"
        # (spawn to journal) must fit inside it.
        frees = sorted(finished.values())
        starts = {t.task_id: t0 if i < BATCH_JOBS else frees[i - BATCH_JOBS]
                  for i, t in enumerate(tasks)
                  if i - BATCH_JOBS < len(frees)}
        for entry in report.entries:
            done = finished.get(entry["task"])
            start = starts.get(entry["task"])
            if entry["status"] != "ok" or done is None or start is None:
                run.failed += 1
                continue
            if done - start < entry["elapsed"] - 1e-3:
                mismatched += 1
            lat.append((done - start) / factor)
            queue_waits.append((start - t0) / factor)
            attempts += len(entry["attempts"])
            records[Path(entry["machine"]).stem] = entry["record"]
        run.failed += len(tasks) - len(report.entries)
    if mismatched:
        print(f"batch: {mismatched} task latencies shorter than their "
              f"journal elapsed: the in-order slot model does not hold",
              file=sys.stderr)
    run.correct = _check_references(items, records, BATCH_ALGORITHM)
    run.metrics = summary(lat, wall)
    if trace:
        done_items = [item for item in items if item[0] in records]
        clock, tracer, stats = _replay(done_items, BATCH_ALGORITHM,
                                       seconds - loop_s)
        run.layers = clock.layers(tracer, stats)
        run.layers.update(
            # spawn + journal + the runner's polling
            overhead_ms=(_mean(lat) - _mean(clock.latencies)) * 1000.0
            if lat else 0.0,
            spawns_per_op=attempts / max(1, len(lat)),
            queue_wait_ms=_mean(queue_waits) * 1000.0)
    return run


WORKLOADS = {
    "table": run_table,
    "embedding": run_embedding,
    "serve": run_serve,
    "batch": run_batch,
}
