"""The repository benchmark: end-to-end and per-layer cost of the NOVA
encode paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
(no install step).  Workloads, each on inputs made from ``--seed``:

* ``table``     — rows of the paper's Tables II-IV on the small
  benchmark set, in seeded order, checked against golden rows;
* ``embedding`` — parse + ``encode_fsm`` of freshly generated
  controllers under ihybrid/iohybrid/igreedy, results checked for
  injective codes, verification and the area formula;
* ``serve``     — four closed-loop clients against a ``nova serve``
  process with two workers, a synthetic mix of the regimes
  ``benchmarks/bench_service.py`` measures: every third request is for
  one of four cached builtin machines (cache), the rest are fresh
  machines, each requested twice in a row (the first waits in
  admission and spawns a worker, the second coalesces onto it);
  answers checked against in-process encodes;
* ``batch``     — repeated 16-task ``BatchRunner`` runs (2 jobs) over
  generated KISS files, latency timed by the benchmark from a task's
  slot start to its completion callback; journaled results checked
  against in-process encodes.

An op is a table row, an encode, a request or a batch task.  With
``--trace 0`` the last stdout line reports ``latency_p50_ms``,
``latency_p90_ms``, ``throughput_per_s`` and ``setup_s`` (median of
five cold starts: a fresh interpreter producing its first result).
Every time is scaled to a reference host speed measured by the probes
in :mod:`calibrate`, so drift in the speed of a shared host cancels.
With ``--trace 1`` it reports per-layer figures instead: time per op in
each pipeline layer, timed from outside by :mod:`spans` (serve and
batch replay their machines in-process for this), the remaining
overhead, substrate counters, and the serving/batch layer ratios.
Metric units are the ones ``BENCHMARK.json`` declares.
Scratch state lives under ``.perfbench/`` in the checkout and is
removed on exit, after every process the run started, directly or not,
has been waited for.

What each layer should move: the cover, mv_min, embed, encoded_min and
verify spans are the blocking steps of table and embedding ops, so a
faster layer shortens those latencies by its share (embed weighs most
on embedding, mv_min and encoded_min on table).  Serve and batch ops
are dominated by ``overhead_ms`` — one worker spawn per cold request or
task — so a cheaper spawn or import moves their latency and throughput
and leaves table and embedding unchanged; ``cache_hit_ratio`` moves
serve throughput only; work moved to import time shows in ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import startup_slowdown
from common import ROOT, MissingProgram, adopt_orphans, prepare, reap_children

COLD_STARTS = 5


def cold_start(workload: str, work: Path, i: int) -> float:
    """Wall seconds from process start to a workload's first result."""
    if workload == "serve":
        from workloads import serve_cold_start

        return serve_cold_start(work, f"cold{i}")
    t0 = time.perf_counter()
    subprocess.run([sys.executable,
                    str(Path(__file__).parent / "cold_start.py"),
                    workload, str(work)], check=True, cwd=work, timeout=120)
    return time.perf_counter() - t0


def setup_seconds(workload: str, work: Path) -> float:
    """Median cold start at the reference start-up speed, each scaled by
    the mean of the start-up probes just before and after it."""
    probes = [startup_slowdown()]
    scaled = []
    for i in range(COLD_STARTS):
        elapsed = cold_start(workload, work, i)
        probes.append(startup_slowdown())
        scaled.append(elapsed / ((probes[-2] + probes[-1]) / 2))
    return statistics.median(scaled)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("table", "embedding", "serve", "batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    adopt_orphans()
    try:
        prepare(work)
        from workloads import WORKLOADS

        if not args.trace:
            setup = setup_seconds(args.workload, work)
        run = WORKLOADS[args.workload](args.seed, args.seconds,
                                       bool(args.trace), work)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    values = run.layers if args.trace else dict(run.metrics, setup_s=setup)
    units = declared_units(bool(args.trace))
    if set(values) != set(units):
        print(f"perfbench: measured {sorted(values)}, BENCHMARK.json "
              f"declares {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
