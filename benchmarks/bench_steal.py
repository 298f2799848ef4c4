"""Work-stealing batch runner scaling snapshot.

Runs the same paced task manifest under 1, 2, and 4 cooperating
claimant processes (``BatchRunner.join``) and measures wall clock,
claims, and published steals — then a reclaim scenario: one of two
claimants is SIGKILLed mid-run and the survivor must steal and finish
the dead claimant's work.

The tasks are paced with a planted in-worker sleep so the benchmark
measures the *coordination substrate* (claim/heartbeat/merge traffic,
steal latency) rather than encode CPU: on a single-core runner the
encodes themselves cannot scale, but lease-coordinated waiting can and
should.  The reclaim run reports how much wall clock the death costs
(one lease TTL of limbo plus the re-run) and proves the merged result
set stays complete.

Usage::

    PYTHONPATH=src python benchmarks/bench_steal.py --out bench-steal.json

CI checks the report's keys against a literal set.  The first
committed snapshot lives on as a ``legacy-*`` record of
``BENCH_TRAJECTORY.json``.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import subprocess
import sys
import tempfile
import textwrap
import time
from typing import Dict, List, Optional

from repro.bench.record import capture_environment
from repro.fsm.benchmarks import benchmark_names
from repro.runner import lease_stats, merge_results, read_results

LEASE_TTL = 2.0
PACE_SLEEP = 0.4

DRIVER = textwrap.dedent("""
    import sys
    from repro.runner import BatchRunner, BatchTask
    from repro.testing.faults import Fault

    def main():
        run_dir, claimant, ttl = sys.argv[1], sys.argv[2], float(sys.argv[3])
        pace = float(sys.argv[4])
        tasks = [BatchTask(machine=name, algorithm="igreedy",
                           faults=[Fault("encode", action="sleep",
                                         seconds=pace).to_dict()])
                 for name in sys.argv[5].split(",")]
        report = BatchRunner.join(run_dir, tasks=tasks, jobs=1,
                                  task_timeout=None, retries=1,
                                  claimant=claimant, lease_ttl=ttl).run()
        sys.exit(0 if report.ok else 1)

    if __name__ == "__main__":
        main()
""")


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.setdefault("NOVA_CACHE", "off")  # measure real work, not hits
    return env


def _spawn(driver: Path, run_dir: Path, claimant: str,
           machines: List[str]) -> subprocess.Popen:
    run_dir.mkdir(parents=True, exist_ok=True)
    log = open(run_dir / f"claimant.{claimant}.log", "w")
    proc = subprocess.Popen(
        [sys.executable, str(driver), str(run_dir), claimant,
         str(LEASE_TTL), str(PACE_SLEEP), ",".join(machines)],
        env=_env(), stdout=log, stderr=subprocess.STDOUT)
    log.close()
    return proc


def _check_exits(run_dir: Path, claimants: List[str],
                 codes: List[int]) -> None:
    for claimant, code in zip(claimants, codes):
        if code == 0:
            continue
        log = run_dir / f"claimant.{claimant}.log"
        tail = log.read_text()[-2000:] if log.exists() else "<no log>"
        raise RuntimeError(
            f"claimant {claimant} exited {code}; log tail:\n{tail}")


def _wait_for_manifest(run_dir: Path, deadline_s: float = 60.0) -> None:
    t0 = time.monotonic()
    while not (run_dir / "manifest.json").exists():
        if time.monotonic() - t0 > deadline_s:
            raise RuntimeError("manifest never appeared")
        time.sleep(0.02)


def _run_stats(run_dir: Path, wall: float, claimants: int) -> Dict:
    merged = merge_results(run_dir)
    stats = lease_stats(run_dir)
    return {
        "claimants": claimants,
        "wall_s": round(wall, 3),
        "completed": len(merged.records),
        "ok": sum(1 for r in merged.records if r["status"] == "ok"),
        "shards": len(merged.shards),
        "steals_published": stats["total_epoch"],
        "stale_rejected": len(merged.rejected),
    }


def bench_scaling(driver: Path, machines: List[str], root: Path) -> List[Dict]:
    out = []
    for k in (1, 2, 4):
        run_dir = root / f"scale-{k}"
        t0 = time.monotonic()
        procs = [_spawn(driver, run_dir, "w0", machines)]
        _wait_for_manifest(run_dir)
        procs += [_spawn(driver, run_dir, f"w{i}", machines)
                  for i in range(1, k)]
        codes = [p.wait(timeout=600) for p in procs]
        wall = time.monotonic() - t0
        _check_exits(run_dir, [f"w{i}" for i in range(k)], codes)
        row = _run_stats(run_dir, wall, claimants=k)
        assert row["completed"] == len(machines), row
        out.append(row)
    base = out[0]["wall_s"]
    for row in out:
        row["speedup"] = round(base / max(row["wall_s"], 1e-9), 2)
    return out


def bench_reclaim(driver: Path, machines: List[str], root: Path) -> Dict:
    """Kill one of two claimants mid-run; the survivor steals the rest."""
    run_dir = root / "reclaim"
    t0 = time.monotonic()
    victim = _spawn(driver, run_dir, "victim", machines)
    _wait_for_manifest(run_dir)
    survivor = _spawn(driver, run_dir, "survivor", machines)
    # let the victim journal at least one record, then kill it cold
    deadline = time.monotonic() + 120
    victim_shard = run_dir / "results.victim.jsonl"
    while time.monotonic() < deadline:
        if victim_shard.exists() and read_results(victim_shard).records:
            break
        time.sleep(0.02)
    victim.kill()
    victim.wait()
    kill_at = time.monotonic() - t0
    code = survivor.wait(timeout=600)
    wall = time.monotonic() - t0
    _check_exits(run_dir, ["survivor"], [code])
    row = _run_stats(run_dir, wall, claimants=2)
    merged = merge_results(run_dir)
    victim_records = sum(1 for r in merged.records
                         if r.get("claimant") == "victim")
    row.update({
        "killed_after_s": round(kill_at, 3),
        "victim_records": victim_records,
        "survivor_records": row["completed"] - victim_records,
        "reclaimed": row["steals_published"],
        "lease_ttl_s": LEASE_TTL,
    })
    assert row["completed"] == len(machines), row
    assert row["reclaimed"] >= 1, "the survivor never stole anything"
    return row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="write the JSON snapshot here")
    parser.add_argument("--machines", type=int, default=8,
                        help="how many small benchmark machines to sweep")
    args = parser.parse_args(argv)

    machines = benchmark_names("small")[:args.machines]
    with tempfile.TemporaryDirectory(prefix="bench-steal-") as tmp:
        root = Path(tmp)
        driver = root / "claimant.py"
        driver.write_text(DRIVER)
        snapshot = {
            "bench": "work-stealing",
            "machines": machines,
            "pace_sleep_s": PACE_SLEEP,
            "lease_ttl_s": LEASE_TTL,
            "python": sys.version.split()[0],
            "environment": capture_environment(),
            "scaling": bench_scaling(driver, machines, root),
            "reclaim": bench_reclaim(driver, machines, root),
        }
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
