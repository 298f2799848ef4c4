"""Worker reuse: which attempts share a process, and that none outlive
their owner.

A worker that finished an attempt ``ok``/``degraded`` without armed
faults takes the next task; any other attempt retires it (or it is
already dead: killed or crashed), so the next attempt runs on a new
pid.  The journal records each attempt's worker pid, which is what
these tests read.

Every process also keeps the code of the ``repro`` modules it loaded
and hands it to each worker it starts (:mod:`repro._codemap`); the last
section checks which code is served, that the latest entry wins, that
a worker compiles only what its parent never loaded, and that nothing
is written.
"""

import asyncio
from importlib.machinery import SourceFileLoader
from importlib.util import source_hash
import json
import marshal
import multiprocessing
import os
from pathlib import Path
import subprocess
import sys
import threading
import time

import pytest

from repro._codemap import MAP, CodeMap, _CodeLoader
from repro.encoding.nova import encode_fsm
from repro.fsm.benchmarks import SMALL, benchmark
from repro.runner import BatchRunner, BatchTask
from repro.runner import worker as worker_mod
from repro.runner.worker import Attempt, Worker, reusable, watch
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
    """A planted sleep outlasts the hard deadline on any host, so the
    (warm, reused) worker running it is SIGKILLed mid-attempt."""
    before = BatchTask(machine="lion", options={"cache": "off"})
    hang = Fault("encode", action="sleep", seconds=60).to_dict()
    slow = BatchTask(machine="train4", options={"cache": "off"},
                     faults=[hang])
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


# ----------------------------------------------------------------------
# compiled code handed from the parent to its workers
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[1] / "src"
LION = {"task": "lion", "machine": "lion", "algorithm": "ihybrid",
        "kind": "encode", "options": {"cache": "off"}}


def _compiled(outcome):
    return outcome["perf"].get("modules_compiled", 0)


def _attempt(worker, spec):
    """Run *spec* on *worker* through the shared watcher."""
    attempt = Attempt(worker, spec, 60.0)
    while True:
        for _, outcome in watch([attempt], 1.0):
            return outcome


def test_second_worker_compiles_nothing_and_sends_nothing(monkeypatch):
    monkeypatch.setattr(MAP, "code", {})
    ctx = multiprocessing.get_context("spawn")
    first = Worker(ctx)
    try:
        cold = _attempt(first, LION)
    finally:
        first.retire()
    assert cold["status"] == "ok"
    shipped = dict(MAP.code)
    nova_py = str(SRC / "repro" / "encoding" / "nova.py")
    worker_py = str(SRC / "repro" / "runner" / "worker.py")
    # the worker module's own imports go through the map as well
    assert nova_py in shipped and worker_py in shipped
    assert all(Path(path).is_relative_to(SRC / "repro") for path in shipped)

    second = Worker(ctx)
    try:
        second.send(LION)
        raw = second.conn.recv()  # before Worker.recv pops anything
    finally:
        second.retire()
    assert raw["status"] == "ok"
    assert _compiled(raw) == 0
    assert worker_mod._CODE_KEY not in raw
    assert MAP.code == shipped
    direct = encode_fsm(benchmark("lion"), "ihybrid", cache="off")
    assert _signature(raw["record"]) == _signature(direct.to_record())


def _load_probe(path, entry):
    """Load *path* as ``repro.probe`` with a map holding *entry* for it:
    the value it sets, the modules compiled, the entries learned."""
    codemap = CodeMap({str(path): entry})
    loader = _CodeLoader("repro.probe", str(path), codemap)
    namespace = {}
    exec(loader.get_code("repro.probe"), namespace)
    return namespace["VALUE"], codemap.compiled, codemap.take_learned()


def test_code_is_served_only_while_the_source_hash_matches(tmp_path):
    """An entry's code is marshalled as shipped to a worker, or a code
    object as a process keeps what it compiled itself; a source file
    each, so that neither loads a .pyc the other wrote."""
    for form in ("marshalled", "code object"):
        path = tmp_path / form.replace(" ", "_") / "probe.py"
        path.parent.mkdir()
        path.write_text("VALUE = 'on disk'\n")
        stale = compile("VALUE = 'shipped'\n", str(path), "exec")
        code = marshal.dumps(stale) if form == "marshalled" else stale
        digest = source_hash(path.read_bytes())

        value, compiled, learned = _load_probe(path, (digest, code))
        assert (value, compiled, learned) == ("shipped", 0, {}), form

        value, compiled, learned = _load_probe(path, (b"\0" * 8, code))
        assert (value, compiled) == ("on disk", 1), form
        assert list(learned) == [str(path)]
        assert learned[str(path)][0] == digest
        fresh = {}
        exec(marshal.loads(learned[str(path)][1]), fresh)
        assert fresh["VALUE"] == "on disk"


def test_learned_hash_is_that_of_the_compiled_source(tmp_path):
    """A source edited between the map's check and the compile is
    learned under the hash of the text that was compiled."""
    path = tmp_path / "probe.py"
    path.write_text("VALUE = 'old'\n")
    codemap = CodeMap()
    loader = _CodeLoader("repro.probe", str(path), codemap)
    read = loader.get_data
    edits = []

    def get_data(name):
        data = read(name)
        if name == str(path) and not edits:
            edits.append(name)
            path.write_text("VALUE = 'new'\n")
        return data

    loader.get_data = get_data
    loaded = {}
    exec(loader.get_code("repro.probe"), loaded)
    digest, code = codemap.take_learned()[str(path)]
    learned = {}
    exec(marshal.loads(code), learned)
    assert edits and learned["VALUE"] == loaded["VALUE"] == "new"
    assert digest == source_hash(b"VALUE = 'new'\n")


def test_stale_shipped_module_is_compiled_fresh(monkeypatch):
    """A shipped entry for a real pipeline module whose hash does not
    match would break every encode if it were served."""
    nova_py = str(SRC / "repro" / "encoding" / "nova.py")
    broken = marshal.dumps(compile("raise RuntimeError('stale code')",
                                   nova_py, "exec"))
    monkeypatch.setitem(MAP.code, nova_py, (b"\0" * 8, broken))
    worker = Worker(multiprocessing.get_context("spawn"))
    try:
        outcome = _attempt(worker, LION)
    finally:
        worker.retire()
    assert outcome["status"] == "ok", outcome.get("error")
    source = Path(nova_py).read_bytes()
    assert MAP.code[nova_py][0] == source_hash(source)


def test_finder_leaves_other_imports_to_the_normal_path(tmp_path,
                                                       monkeypatch):
    codemap = CodeMap()
    for name in ("json", "multiprocessing.connection", "reprox",
                 "repro_probe"):
        assert codemap.find_spec(name) is None, name
    import repro.encoding

    spec = codemap.find_spec("repro.encoding.nova", repro.encoding.__path__)
    assert isinstance(spec.loader, _CodeLoader)
    assert spec.origin == str(SRC / "repro" / "encoding" / "nova.py")

    (tmp_path / "repro_probe.py").write_text("VALUE = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "meta_path", [codemap] + sys.meta_path)
    monkeypatch.delitem(sys.modules, "repro_probe", raising=False)
    import repro_probe

    assert type(repro_probe.__loader__) is SourceFileLoader
    assert (codemap.code, codemap.learned) == ({}, set())
    monkeypatch.delitem(sys.modules, "repro_probe")


def _warm_map():
    """Load what a lion encode loads into this process, so the map a
    worker is handed holds all of it."""
    encode_fsm(benchmark("lion"), "ihybrid", cache="off")


def test_worker_entry_replaces_a_stale_parent_entry(monkeypatch):
    """The parent keeps a code object for what it compiled itself.  When
    that entry is stale, a worker loads the source on disk, its entry
    replaces the parent's, and the next worker is served it."""
    _warm_map()
    verify_py = str(SRC / "repro" / "encoding" / "verify.py")
    old = compile("raise RuntimeError('stale code')", verify_py, "exec")
    monkeypatch.setitem(MAP.code, verify_py, (b"\0" * 8, old))
    ctx = multiprocessing.get_context("spawn")
    outcomes, entries = [], []
    for _ in range(2):
        worker = Worker(ctx)
        try:
            outcomes.append(_attempt(worker, LION))
        finally:
            worker.retire()
        entries.append(MAP.code[verify_py])
    assert [o["status"] for o in outcomes] == ["ok", "ok"]
    assert _compiled(outcomes[1]) == 0
    # the first worker's entry, served to the second, which sent none
    assert entries[0][0] == source_hash(Path(verify_py).read_bytes())
    assert entries[1] is entries[0]


def test_latest_entry_wins():
    path = "/src/repro/probe.py"
    old = (b"old-hash", compile("X = 1", path, "exec"))
    new = (b"new-hash", marshal.dumps(compile("X = 2", path, "exec")))
    parent = CodeMap({path: old})
    parent.update({path: new})  # a worker's report
    assert parent.code[path] == new
    assert parent.shipped() == {path: new}

    # a worker keeps what it loaded before the parent's map came, and
    # sends it back unless the parent has it under the same hash
    for shipped, sent in (({path: old}, [path]), ({path: new}, [])):
        worker = CodeMap()
        worker.learn(path, new[0], marshal.loads(new[1]), compiled=True)
        worker.load(shipped)
        assert worker.code[path][0] == new[0]
        assert list(worker.take_learned()) == sent


def _replacement_tasks(spoiler):
    """lion, a spoiler that ends its worker, then lion on a new one."""
    return [BatchTask(machine="lion", options={"cache": "off"}), spoiler,
            BatchTask(machine="lion", options={"cache": "off"},
                      task_id="lion-again")]


@pytest.mark.parametrize("spoiler", ["armed", "timeout"])
def test_replacement_batch_worker_gets_the_code(tmp_path, spoiler):
    if spoiler == "armed":
        fault = Fault("encode", exc=ValueError,
                      match={"algorithm": "no-such-rung"})
    else:
        fault = Fault("encode", action="sleep", seconds=60)
    tasks = _replacement_tasks(BatchTask(
        machine="train4", options={"cache": "off"},
        faults=[fault.to_dict()]))
    report = _run(tasks, tmp_path / "run", task_timeout=5.0)
    (p_first,), (p_spoiled,), (p_after,) = _pids(report, tasks)
    assert p_spoiled == p_first and p_after != p_first
    again = report.entry_for("lion-again")
    assert again["status"] == "ok"
    assert again["perf"].get("modules_compiled", 0) == 0
    direct = encode_fsm(benchmark("lion"), "ihybrid", cache="off")
    assert _signature(again["record"]) == _signature(direct.to_record())


def test_replacement_pool_worker_gets_the_code(monkeypatch):
    monkeypatch.setattr(MAP, "code", {})
    stats = ServerStats()
    pool = WorkerPool(stats=stats)
    crash = dict(LION, faults=[Fault("encode", action="exit").to_dict()])

    async def scenario():
        return [await pool.run(spec, None) for spec in (LION, crash, LION)]

    try:
        first, crashed, after = asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert multiprocessing.active_children() == []
    assert (first["status"], crashed["status"], after["status"]) == \
        ("ok", "crashed", "ok")
    assert stats.worker_starts == 2
    assert after["pid"] != first["pid"]
    # the first worker's code went into the map, not into its outcome
    assert MAP.code
    assert all(worker_mod._CODE_KEY not in outcome
               for outcome in (first, crashed, after))
    assert _compiled(after) == 0
    direct = encode_fsm(benchmark("lion"), "ihybrid", cache="off")
    assert _signature(after["record"]) == _signature(direct.to_record())


def test_concurrent_cold_workers_fill_one_map(monkeypatch):
    """More cold pool workers than cores start and report at once, with
    thread switches forced often: no worker's code may be lost from the
    map, so a worker started afterwards compiles nothing."""
    monkeypatch.setattr(MAP, "code", {})
    switch = sys.getswitchinterval()

    async def burst(pool, n):
        return await asyncio.gather(*[pool.run(LION, 60.0)
                                      for _ in range(n)])

    sys.setswitchinterval(1e-5)
    try:
        pool = WorkerPool(stats=ServerStats())
        try:
            cold = asyncio.run(burst(pool, 4))
        finally:
            pool.shutdown()
        pool = WorkerPool(stats=ServerStats())
        try:
            (later,) = asyncio.run(burst(pool, 1))
        finally:
            pool.shutdown()
    finally:
        sys.setswitchinterval(switch)
    assert multiprocessing.active_children() == []
    assert len({o["pid"] for o in cold}) == 4
    assert all(o["status"] == "ok" for o in cold + [later])
    assert _compiled(later) == 0
    direct = _signature(encode_fsm(benchmark("lion"), "ihybrid",
                                   cache="off").to_record())
    assert all(_signature(o["record"]) == direct for o in cold + [later])


def test_pool_worker_starts_leave_the_lock_free(monkeypatch):
    """With the map filled a start lasts until the child has read its
    args.  Two pool workers start at once, and while they start the
    pool lock stays free: another thread's checkin and /stats do not
    wait for either boot."""
    monkeypatch.setattr(MAP, "code", {})
    pool = WorkerPool(stats=ServerStats())
    held = threading.Event()
    entered = []
    start = Worker._start

    def held_start(self, child_end):
        entered.append(self)
        held.wait(60)
        start(self, child_end)

    try:
        assert asyncio.run(pool.run(LION, 60.0))["status"] == "ok"
        assert MAP.code
        busy, started = pool._checkout("lion")  # the idle first worker
        assert not started
        monkeypatch.setattr(Worker, "_start", held_start)
        new = []
        checkouts = [threading.Thread(
            target=lambda: new.append(pool._checkout(None)))
            for _ in range(2)]
        for thread in checkouts:
            thread.start()
        deadline = time.monotonic() + 30
        while len(entered) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(entered) == 2  # both starts under way at once
        checkin = threading.Thread(target=pool._checkin, args=(busy,))
        checkin.start()
        checkin.join(10)
        blocked = checkin.is_alive()
        pids = None if blocked else pool.live_pids()
        held.set()
        for thread in checkouts + [checkin]:
            thread.join(60)
        assert not blocked, "checkin waited for a worker's start"
        assert pids == [busy.pid]  # the new workers register once started
        assert sorted(w.pid for w, started in new if started) == \
            sorted(w.pid for w in entered)
        for worker, _ in new:
            pool._checkin(worker)
    finally:
        held.set()
        pool.shutdown()
    assert multiprocessing.active_children() == []


# the imports sit under the guard: a spawned worker re-imports this
# script's top level before its parent's map of compiled code arrives
_NO_WRITE_SCRIPT = """
import json, sys

if __name__ == "__main__":
    from repro.runner import BatchRunner, BatchTask
    from repro.runner.worker import execute

    compiled = []
    for run in ("first", "second"):
        tasks = [BatchTask(machine=m, options={"cache": "off"})
                 for m in ("lion", "dk27")]
        report = BatchRunner(tasks, sys.argv[1] + "/" + run, jobs=1,
                             retries=0).run()
        assert report.ok
        compiled.append(report.perf.modules_compiled)
    # the modules the worker loaded and this process never imported:
    # those the same tasks import when run here
    loaded = set(sys.modules)
    for task in tasks:
        assert execute(task.spec())["status"] == "ok"
    never = sorted(set(sys.modules) - loaded)
    print(json.dumps({"compiled": compiled, "never": never}))
"""


def _tree(root):
    return {str(p.relative_to(root)): p.stat().st_mtime_ns
            for p in root.rglob("*")}


def test_batch_under_dont_write_bytecode_writes_nothing(tmp_path):
    script = tmp_path / "two_runs.py"
    script.write_text(_NO_WRITE_SCRIPT)
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONPYCACHEPREFIX"}
    env.update(PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(SRC) + os.pathsep + env.get("PYTHONPATH", ""))
    before = _tree(SRC)
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert _tree(SRC) == before
    out = json.loads(proc.stdout.splitlines()[-1])
    (first, second), never = out["compiled"], out["never"]
    assert all(m.startswith("repro.") for m in never), never
    if not any(SRC.rglob("*.pyc")):  # nothing to load but the sources
        assert first == len(never) > 0, never
    assert second == 0
