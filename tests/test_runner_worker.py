"""Worker reuse: which attempts share a process, and that none outlive
their owner.

A worker that finished an attempt ``ok``/``degraded`` without armed
faults takes the next task; any other attempt retires it (or it is
already dead: killed or crashed), so the next attempt runs on a new
pid.  The journal records each attempt's worker pid, which is what
these tests read.
"""

import asyncio
import multiprocessing
import os

import pytest

from repro.encoding.nova import encode_fsm
from repro.fsm.benchmarks import SMALL, benchmark
from repro.runner import BatchRunner, BatchTask
from repro.runner.worker import reusable
from repro.server import EncodeService, WorkerPool
from repro.server.stats import ServerStats
from repro.testing.faults import Fault


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _run(tasks, run_dir, **kw):
    kw.setdefault("jobs", 1)
    kw.setdefault("retries", 0)
    report = BatchRunner(tasks, run_dir, **kw).run()
    assert multiprocessing.active_children() == []
    return report


def _pids(report, tasks):
    """The worker pid of every attempt, in task order."""
    return [[a["pid"] for a in report.entry_for(t.task_id)["attempts"]]
            for t in tasks]


def _signature(record):
    return (record["state_encoding"]["codes"], record["bits"],
            record["cubes"], record["area"])


def test_reuse_rule():
    clean = {"task": "t", "faults": []}
    armed = {"task": "t", "faults": [{"stage": "encode"}]}
    assert reusable(clean, {"status": "ok"})
    assert reusable(clean, {"status": "degraded"})
    assert not reusable(clean, {"status": "error"})
    assert not reusable(armed, {"status": "ok"})


def test_clean_tasks_share_one_worker(tmp_path):
    tasks = [BatchTask(machine=m, options={"cache": "off"})
             for m in ("lion", "train4", "dk27", "lion9")]
    report = _run(tasks, tmp_path / "run")
    assert report.ok
    pids = [p for (p,) in _pids(report, tasks)]
    assert len(set(pids)) == 1, pids
    assert not _pid_alive(pids[0])  # closed before run() returned


@pytest.mark.parametrize("spoiler", ["armed", "error", "crash"])
def test_spoiled_worker_is_not_reused(tmp_path, spoiler):
    before = BatchTask(machine="lion", options={"cache": "off"})
    after = BatchTask(machine="dk27", options={"cache": "off"})
    if spoiler == "armed":
        # armed but never fires: the attempt is ok, the worker retires
        bad = BatchTask(machine="train4", faults=[Fault(
            "encode", exc=ValueError,
            match={"algorithm": "no-such-rung"}).to_dict()])
    elif spoiler == "error":
        bad = BatchTask(machine=str(tmp_path / "missing.kiss"))
    else:
        bad = BatchTask(machine="train4",
                        faults=[Fault("encode", action="exit").to_dict()])
    tasks = [before, bad, after]
    report = _run(tasks, tmp_path / "run")
    (p_before,), (p_bad,), (p_after,) = _pids(report, tasks)
    status = report.entry_for(bad.task_id)["status"]
    assert status == ("ok" if spoiler == "armed" else "failed")
    assert p_bad == p_before  # the clean attempt's worker took the task
    assert p_after != p_bad


def test_timeout_kill_is_not_reused(tmp_path):
    """No fault involved: iexact on dk16 runs for far longer than the
    hard deadline, so its (warm, reused) worker is SIGKILLed."""
    before = BatchTask(machine="lion", options={"cache": "off"})
    slow = BatchTask(machine="dk16", algorithm="iexact",
                     options={"cache": "off"})
    after = BatchTask(machine="dk27", options={"cache": "off"})
    tasks = [before, slow, after]
    report = _run(tasks, tmp_path / "run", task_timeout=5.0)
    (p_before,), (p_slow,), (p_after,) = _pids(report, tasks)
    entry = report.entry_for(slow.task_id)
    assert entry["attempts"][0]["killed"] == "timeout"
    assert report.entry_for(after.task_id)["status"] == "ok"
    assert p_slow == p_before
    assert p_after != p_slow


def test_retry_after_error_runs_on_a_new_worker(tmp_path):
    boom = Fault("encode", exc=ValueError,
                 match={"algorithm": "ihybrid"}).to_dict()
    task = BatchTask(machine="lion", faults=[boom])
    report = _run([task], tmp_path / "run", retries=1)
    first, second = report.entry_for(task.task_id)["attempts"]
    assert (first["status"], second["status"]) == ("error", "ok")
    assert first["pid"] != second["pid"]


def test_fail_fast_leaves_no_worker(tmp_path):
    crash = Fault("encode", action="exit").to_dict()
    tasks = ([BatchTask(machine=m, options={"cache": "off"})
              for m in ("lion", "dk27")]
             + [BatchTask(machine="train4", faults=[crash])]
             + [BatchTask(machine=m) for m in SMALL[7:12]])
    report = _run(tasks, tmp_path / "run", jobs=2, fail_fast=True)
    assert report.interrupted


def test_joined_run_reuses_and_closes_workers(tmp_path):
    tasks = [BatchTask(machine=m, options={"cache": "off"})
             for m in ("lion", "train4", "dk27")]
    report = BatchRunner.join(tmp_path / "run", tasks=tasks, jobs=1,
                              retries=0).run()
    assert multiprocessing.active_children() == []
    assert report.ok
    assert len({p for (p,) in _pids(report, tasks)}) == 1


def test_reused_worker_sweep_matches_in_process(tmp_path):
    tasks = [BatchTask(machine=m, options={"cache": "off"}) for m in SMALL]
    report = _run(tasks, tmp_path / "run", jobs=2)
    assert report.ok and report.completed == len(SMALL)
    pids = {p for (p,) in _pids(report, tasks)}
    assert len(pids) <= 2  # 13 tasks, at most two interpreters
    for task in tasks:
        record = report.entry_for(task.task_id)["record"]
        direct = encode_fsm(benchmark(task.machine), "ihybrid", cache="off")
        assert _signature(record) == _signature(direct.to_record()), \
            task.machine


# ----------------------------------------------------------------------
# the encode service's pool
# ----------------------------------------------------------------------
def test_service_reuses_warm_worker_and_shutdown_kills_it():
    svc = EncodeService(workers=1, queue_limit=4, cache_policy="off")
    machines = ("lion", "dk27", "train4")

    async def scenario():
        out = []
        for m in machines:
            out.append(await svc.handle_encode({
                "machine": m, "options": {"algorithm": "igreedy",
                                          "cache": "off"}}))
        return out

    try:
        responses = asyncio.run(scenario())
        assert [r.status for r in responses] == [200] * len(machines)
        assert svc.stats.worker_spawns == len(machines)
        assert svc.stats.worker_starts == 1
        pids = svc.snapshot()["worker_pids"]
        assert len(pids) == 1 and _pid_alive(pids[0])
    finally:
        killed = svc.shutdown()
    assert killed == 1
    assert multiprocessing.active_children() == []
    assert svc.pool.live_pids() == []


def test_pool_retires_a_worker_after_an_error(tmp_path):
    stats = ServerStats()
    pool = WorkerPool(stats=stats)

    def spec(machine):
        return {"task": machine, "machine": machine, "algorithm": "igreedy",
                "kind": "encode", "options": {"cache": "off"}}

    async def scenario():
        first = await pool.run(spec("lion"), None)
        bad = await pool.run(spec(str(tmp_path / "missing.kiss")), None)
        good = await pool.run(spec("lion"), None)
        return first, bad, good

    try:
        first, bad, good = asyncio.run(scenario())
        assert [first["status"], bad["status"], good["status"]] == \
            ["ok", "error", "ok"]
        # lion and the error share the first worker; it then retires
        assert stats.worker_starts == 2
    finally:
        pool.shutdown()
    assert multiprocessing.active_children() == []
