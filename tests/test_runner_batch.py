"""The parallel batch runner: isolation, hard kills, retry, resume.

The process-spawning tests stay on tiny machines so the whole module
runs in tens of seconds; the kill-and-resume integration test drives a
real child Python process and SIGKILLs it mid-run.
"""

import json
import os
from pathlib import Path
import random
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.fsm.benchmarks import SMALL
from repro.runner import BatchRunner, BatchTask, read_manifest, read_results
from repro.runner.batch import tasks_for_benchmarks, tasks_for_kiss_dir
from repro.testing.faults import Fault

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class TestTaskModel:
    def test_task_ids_are_stable_and_unique(self):
        a = BatchTask(machine="lion", algorithm="ihybrid")
        b = BatchTask(machine="lion", algorithm="igreedy")
        t = BatchTask(machine="lion", kind="table", table=3)
        assert a.task_id == "ihybrid:lion"
        assert len({a.task_id, b.task_id, t.task_id}) == 3

    def test_spec_round_trip(self):
        t = BatchTask(machine="dk27", algorithm="iexact",
                      options={"effort": "low"},
                      faults=[Fault("encode", action="sleep",
                                    seconds=1.0).to_dict()])
        t2 = BatchTask.from_spec(json.loads(json.dumps(t.spec())))
        assert t2 == t

    def test_ladder_follows_degradation_chain(self):
        assert BatchTask(machine="x", algorithm="iexact").ladder() == \
            ("iexact", "ihybrid", "igreedy", "onehot")
        # table tasks have no ladder: a retry repeats the same row
        assert BatchTask(machine="x", kind="table", table=6).ladder() == \
            ("ihybrid",)

    def test_duplicate_ids_rejected(self, tmp_path):
        tasks = [BatchTask(machine="lion"), BatchTask(machine="lion")]
        with pytest.raises(ValueError, match="duplicate"):
            BatchRunner(tasks, tmp_path)

    def test_builders(self, tmp_path):
        tasks = tasks_for_benchmarks("small")
        assert {t.machine for t in tasks} == set(SMALL)
        assert all(t.options.get("effort") for t in tasks)
        (tmp_path / "m.kiss").write_text(
            ".i 1\n.o 1\n.s 2\n0 a a 0\n1 a b 1\n0 b b 1\n1 b a 0\n")
        tasks = tasks_for_kiss_dir(tmp_path)
        assert len(tasks) == 1 and tasks[0].machine.endswith("m.kiss")
        with pytest.raises(FileNotFoundError):
            tasks_for_kiss_dir(tmp_path / "empty")


class FailurePaths:
    """Attempt failures end the same way in both scheduling modes."""

    fail_fast_status = "failed"

    def run_batch(self, tasks, run_dir, **kw):
        return BatchRunner(tasks, run_dir, **kw).run()

    def test_hard_timeout_kills_and_retries_down_ladder(self, tmp_path):
        """A hang the cooperative Budget cannot interrupt: the planted
        sleep never checks any deadline.  The parent must SIGKILL the
        worker and retry at the next ladder rung."""
        hang = Fault("encode", action="sleep", seconds=60,
                     match={"algorithm": "iexact"}).to_dict()
        task = BatchTask(machine="lion", algorithm="iexact", faults=[hang])
        t0 = time.monotonic()
        report = self.run_batch([task], tmp_path / "run", jobs=1,
                                task_timeout=1.5, retries=2)
        assert time.monotonic() - t0 < 30  # killed, not waited out
        assert report.ok
        entry = report.entry_for(task.task_id)
        assert entry["status"] == "ok"
        first, second = entry["attempts"][:2]
        assert first["algorithm"] == "iexact"
        assert first["status"] == "killed"
        assert first["killed"] == "timeout"
        assert second["algorithm"] == "ihybrid"
        assert second["status"] == "ok"
        assert report.kill_reasons["timeout"] == 1

    def test_worker_crash_is_retried(self, tmp_path):
        """os._exit models an OOM kill: no exception, no result, just a
        dead process; the parent classifies it and retries."""
        crash = Fault("encode", action="exit", exit_code=9,
                      match={"algorithm": "ihybrid"}).to_dict()
        task = BatchTask(machine="dk27", algorithm="ihybrid", faults=[crash])
        report = self.run_batch([task], tmp_path / "run", jobs=1,
                                retries=1)
        entry = report.entry_for(task.task_id)
        assert entry["status"] == "ok"
        assert entry["attempts"][0]["status"] == "crashed"
        assert entry["attempts"][0]["exitcode"] == 9
        assert entry["attempts"][1]["algorithm"] == "igreedy"
        assert report.crashes == 1

    def test_taxonomy_error_is_transported_and_retried(self, tmp_path):
        # fault state is per-attempt (each worker arms a fresh plan), so
        # a transient fault is expressed by matching the first rung
        boom = Fault("encode", exc=ValueError,
                     match={"algorithm": "ihybrid"}).to_dict()
        task = BatchTask(machine="lion", faults=[boom])
        report = self.run_batch([task], tmp_path / "run", retries=1)
        entry = report.entry_for(task.task_id)
        assert entry["status"] == "ok"
        assert entry["attempts"][0]["status"] == "error"
        assert entry["attempts"][0]["error"]["type"] == "ValueError"

    def test_retries_exhausted_is_an_explicit_failure(self, tmp_path):
        crash = Fault("encode", action="exit").to_dict()  # every attempt
        task = BatchTask(machine="lion", faults=[crash])
        report = self.run_batch([task], tmp_path / "run", retries=1)
        assert not report.ok
        entry = report.entry_for(task.task_id)
        assert entry["status"] == "failed"
        assert len(entry["attempts"]) == 2
        assert read_manifest(tmp_path / "run")["status"] == "failed"

    def test_fail_fast_stops_the_batch(self, tmp_path):
        crash = Fault("encode", action="exit").to_dict()
        tasks = [BatchTask(machine="lion", faults=[crash])] + \
            [BatchTask(machine=m) for m in SMALL[1:7]]
        report = self.run_batch(tasks, tmp_path / "run", jobs=1, retries=0,
                                fail_fast=True)
        assert report.interrupted and not report.ok
        assert report.completed < len(tasks)
        # a serial run owns its manifest; a joined claimant's fail-fast
        # is local, so the manifest still says the run is going on
        assert read_manifest(tmp_path / "run")["status"] == \
            self.fail_fast_status


class TestBatchRunner(FailurePaths):
    def test_small_batch_parallel_ok(self, tmp_path):
        tasks = [BatchTask(machine=m) for m in ("lion", "train4", "dk27")]
        report = BatchRunner(tasks, tmp_path / "run", jobs=2,
                             task_timeout=120).run()
        assert report.ok and report.completed == 3
        assert report.status_counts["ok"] == 3
        assert report.verified == 3
        entries = read_results(tmp_path / "run" / "results.jsonl").records
        assert {e["task"] for e in entries} == {t.task_id for t in tasks}
        # worker perf counters came back across the process boundary
        assert report.perf.espresso_passes > 0
        assert read_manifest(tmp_path / "run")["status"] == "complete"

    def test_results_match_in_process_encode(self, tmp_path):
        """Worker isolation must not change the encoding itself."""
        from repro.encoding.nova import encode_fsm
        from repro.fsm.benchmarks import benchmark

        report = BatchRunner([BatchTask(machine="dk27")],
                             tmp_path / "run", jobs=1).run()
        rec = report.records()[0]
        direct = encode_fsm(benchmark("dk27"), "ihybrid", effort="full")
        assert rec["state_encoding"]["codes"] == \
            list(direct.state_encoding.codes)
        assert (rec["area"], rec["cubes"]) == (direct.area, direct.cubes)

    def test_resume_skips_journaled_tasks(self, tmp_path):
        tasks = [BatchTask(machine=m) for m in ("lion", "dk27")]
        run_dir = tmp_path / "run"
        BatchRunner(tasks, run_dir, jobs=1).run()
        before = (run_dir / "results.jsonl").read_text()
        report = BatchRunner.resume(run_dir).run()
        assert report.ok and report.completed == 2
        assert (run_dir / "results.jsonl").read_text() == before

    def test_live_run_dir_is_refused_without_force(self, tmp_path):
        """A second parent journaling into a live run dir would write
        duplicate rows; the manifest pid guard refuses it."""
        from repro.runner import RunDirBusy
        from repro.runner.journal import write_manifest

        run_dir = tmp_path / "run"
        run_dir.mkdir()
        sleeper = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            write_manifest(run_dir, {"status": "running",
                                     "pid": sleeper.pid, "tasks": []})
            with pytest.raises(RunDirBusy, match=str(sleeper.pid)):
                BatchRunner([BatchTask(machine="lion")], run_dir,
                            jobs=1).run()
            # --force overrides a false positive (e.g. pid reuse)
            report = BatchRunner([BatchTask(machine="lion")], run_dir,
                                 jobs=1, force=True).run()
            assert report.ok
        finally:
            sleeper.kill()
            sleeper.wait()

    def test_dead_pid_in_manifest_does_not_block_resume(self, tmp_path):
        from repro.runner.journal import write_manifest

        run_dir = tmp_path / "run"
        run_dir.mkdir()
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        write_manifest(run_dir, {"status": "running", "pid": dead.pid,
                                 "tasks": []})
        report = BatchRunner([BatchTask(machine="lion")], run_dir,
                             jobs=1).run()
        assert report.ok

    def test_shuffle_does_not_change_the_result_set(self, tmp_path):
        names = ("lion", "train4", "dk27")
        plain = BatchRunner([BatchTask(machine=m) for m in names],
                            tmp_path / "a", jobs=2).run()
        shuffled = BatchRunner([BatchTask(machine=m) for m in names],
                               tmp_path / "b", jobs=2,
                               shuffle_seed=7).run()
        key = lambda r: r["machine"]
        a = sorted((r["machine"], r["state_encoding"])
                   for r in plain.records())
        b = sorted((r["machine"], r["state_encoding"])
                   for r in shuffled.records())
        assert a == b


class TestJoinedBatchRunner(FailurePaths):
    """The failure paths again, through a single-claimant joined run."""

    fail_fast_status = "running"

    def run_batch(self, tasks, run_dir, **kw):
        return BatchRunner.join(run_dir, tasks=tasks, **kw).run()

    def test_shuffle_seed_is_honoured_and_recorded(self, tmp_path):
        names = ("lion", "train4", "dk27")
        plain = self.run_batch([BatchTask(machine=m) for m in names],
                               tmp_path / "a", jobs=2)
        finished = []
        shuffled = BatchRunner.join(
            tmp_path / "b", tasks=[BatchTask(machine=m) for m in names],
            jobs=1, shuffle_seed=7, progress=finished.append).run()
        assert read_manifest(tmp_path / "b")["config"]["shuffle_seed"] == 7
        # a later joiner adopts the creator's seed from the manifest
        assert BatchRunner.join(tmp_path / "b").shuffle_seed == 7
        # one job: tasks finish in the order they start
        order = [line.split(":")[1] for line in finished
                 if line.startswith("ihybrid:")]
        expected = list(names)
        random.Random(7).shuffle(expected)
        assert order == expected
        pick = lambda report: sorted(
            (r["machine"], json.dumps(r["state_encoding"]), r["area"])
            for r in report.records())
        assert pick(shuffled) == pick(plain)


DRIVER = textwrap.dedent("""
    import sys
    from repro.runner import BatchRunner, BatchTask
    from repro.testing.faults import Fault

    def main():
        run_dir, names = sys.argv[1], sys.argv[2].split(",")
        # pace each task so the parent can be killed mid-run: the sleep
        # fires inside the worker's encode stage and then continues
        pace = Fault("encode", action="sleep", seconds=0.3).to_dict()
        tasks = [BatchTask(machine=n, faults=[pace]) for n in names]
        BatchRunner(tasks, run_dir, jobs=2, task_timeout=120,
                    retries=1).run()

    if __name__ == "__main__":
        main()
""")


class TestKillAndResume:
    def test_sigkill_parent_then_resume_completes_identically(self, tmp_path):
        """The acceptance scenario: SIGKILL the parent mid-batch, resume,
        and the union of journaled results must equal an uninterrupted
        serial run — same task ids, no duplicates, bit-identical
        encodings."""
        names = SMALL[:10]
        driver = tmp_path / "driver.py"
        driver.write_text(DRIVER)
        run_dir = tmp_path / "run"
        proc = subprocess.Popen(
            [sys.executable, str(driver), str(run_dir), ",".join(names)],
            env=_env(), cwd=str(tmp_path))
        journal = run_dir / "results.jsonl"
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if journal.exists() and \
                        len(journal.read_text().splitlines()) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("first journal lines never appeared")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        interrupted = read_results(journal)
        assert 0 < len(interrupted.records) < len(names)

        resumed = BatchRunner.resume(run_dir).run()
        assert resumed.ok
        final = read_results(journal)
        ids = final.task_ids
        assert len(ids) == len(set(ids)) == len(names)  # complete, no dupes
        # the pre-kill rows survived untouched
        assert final.records[:len(interrupted.records)] == \
            interrupted.records

        # identical to an uninterrupted serial baseline, bit for bit
        baseline = BatchRunner(
            [BatchTask(machine=n) for n in names],
            tmp_path / "baseline", jobs=1, task_timeout=120).run()
        pick = lambda recs: sorted(
            (r["machine"], r["algorithm"], json.dumps(r["state_encoding"]),
             json.dumps(r["symbol_encoding"]), r["cubes"], r["area"])
            for r in recs)
        assert pick(resumed.records()) == pick(baseline.records())


class TestBatchCLI:
    def test_cli_sweep_produces_parseable_journal(self, tmp_path):
        """The CI acceptance check: a small --jobs 2 sweep exits 0 and
        every journal line parses."""
        run_dir = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "batch", "--set", "small",
             "--jobs", "2", "--task-timeout", "120", "--out", str(run_dir)],
            env=_env(), cwd=str(tmp_path), capture_output=True, text=True,
            timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = (run_dir / "results.jsonl").read_text().splitlines()
        assert len(lines) == len(SMALL)
        for line in lines:
            entry = json.loads(line)
            assert entry["status"] in ("ok", "degraded")
        assert "batch:" in proc.stdout
        assert read_manifest(run_dir)["status"] == "complete"

    def test_cli_join_then_status(self, tmp_path):
        """--join on a fresh dir creates the run, claims through leases,
        and journals into a claimant shard; 'batch status' then renders
        the merged durable state and exits 0 for a complete clean run."""
        (tmp_path / "m.kiss").write_text(
            ".i 1\n.o 1\n.s 2\n0 a a 0\n1 a b 1\n0 b b 1\n1 b a 0\n")
        run_dir = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "batch", str(tmp_path),
             "--join", str(run_dir), "--claimant", "w1",
             "--lease-ttl", "30"],
            env=_env(), cwd=str(tmp_path), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (run_dir / "results.w1.jsonl").exists()
        assert read_manifest(run_dir)["status"] == "complete"
        assert read_manifest(run_dir)["config"]["lease_ttl"] == 30.0

        status = subprocess.run(
            [sys.executable, "-m", "repro.cli", "batch", "status",
             str(run_dir), "--json"],
            env=_env(), capture_output=True, text=True, timeout=120)
        assert status.returncode == 0, status.stderr
        view = json.loads(status.stdout)
        assert view["planned"] == view["completed"] == 1
        assert view["remaining"] == [] and view["failed"] == 0
        assert view["shards"] == ["results.w1.jsonl"]
        assert view["rejected"] == []

    def test_cli_status_without_run_dir_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "batch", "status"],
            env=_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "RUN_DIR" in proc.stderr

    def test_cli_resume_of_fresh_dir_fails_cleanly(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "batch", "--resume",
             str(tmp_path / "nope")],
            env=_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "manifest.json" in proc.stderr
