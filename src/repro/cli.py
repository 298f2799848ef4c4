"""Command-line interface: ``nova`` — encode a KISS2 machine or run tables.

Examples
--------
Encode a machine from a KISS2 file with the default algorithm::

    nova encode my_machine.kiss --algorithm iohybrid

Run a benchmark machine by name::

    nova encode --benchmark dk14 --algorithm ihybrid

Regenerate a paper table on the small machine subset::

    nova table 2 --subset small
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

# only what building the parser needs: each subcommand imports its own
# machinery, and a spawned batch/serve worker re-runs this module as
# __mp_main__, so every import here is paid once per worker as well
from repro.encoding.options import ALGORITHMS, CACHE_POLICIES
from repro.errors import ReproError, exit_code_for
from repro.fsm.benchmarks import benchmark, benchmark_names
from repro.fsm.kiss import parse_kiss


def _load_fsm(args: argparse.Namespace):
    """The machine named by --benchmark or the KISS2 file argument;
    None (after printing the usage error) when neither is given."""
    if args.benchmark:
        return benchmark(args.benchmark)
    if args.file:
        with open(args.file) as f:
            return parse_kiss(f.read(), name=args.file)
    print("error: give a KISS2 file or --benchmark NAME", file=sys.stderr)
    return None


def _cmd_encode(args: argparse.Namespace) -> int:
    from repro.encoding.nova import encode_fsm

    fsm = _load_fsm(args)
    if fsm is None:
        return 2
    result = encode_fsm(fsm, args.algorithm, nbits=args.bits,
                        effort=args.effort, timeout=args.timeout,
                        fallback=not args.no_fallback,
                        seed=args.seed, cache=args.cache)
    report = result.report
    if report is not None and report.degraded:
        print(f"degraded: {report.summary()}", file=sys.stderr)
    print(f"machine    : {fsm!r}")
    print(f"algorithm  : {result.algorithm}")
    if report is not None and report.cache_hit:
        print("cache      : hit")
    print(f"code length: {result.bits} bits")
    print(f"cubes      : {result.cubes}")
    print(f"area       : {result.area}")
    print(f"time       : {result.seconds:.2f}s")
    if report is not None and report.verified is not None:
        print(f"verified   : {report.verified}")
    print("state codes:")
    for i, state in enumerate(fsm.states):
        print(f"  {state:12s} {result.state_encoding.as_bits(i)}")
    if result.symbol_encoding is not None:
        print("input symbol codes:")
        for i, sym in enumerate(fsm.symbolic_input_values):
            print(f"  {sym:12s} {result.symbol_encoding.as_bits(i)}")
    if result.out_symbol_encoding is not None:
        print("output symbol codes:")
        for i, sym in enumerate(fsm.symbolic_output_values):
            print(f"  {sym:12s} {result.out_symbol_encoding.as_bits(i)}")
    return 0


def _fold_worker_perf(report) -> None:
    """Add a batch run's worker counters to the ``--stats`` collector
    (the work ran in the workers, whose collectors this one never saw)."""
    from repro import perf

    if perf.STATS is not None:
        perf.STATS.merge(report.perf.as_dict())


def _cmd_table(args: argparse.Namespace) -> int:
    """One paper table: a batch-runner row task per machine."""
    import tempfile

    from repro import config
    from repro.bench.discover import DEFAULT_TASK_TIMEOUT, subset_names
    from repro.eval import tables
    from repro.runner import BatchRunner, BatchTask

    n = args.number
    if n not in tables.TABLE_SETS:
        print(f"error: no table {n}", file=sys.stderr)
        return 2
    names = subset_names(tables.TABLE_SETS[n], args.subset)
    tasks = [BatchTask(machine=name, kind="table", table=n)
             for name in names]
    with tempfile.TemporaryDirectory(prefix=f"nova-table{n}-") as run_dir:
        report = BatchRunner(
            tasks, run_dir, jobs=config.bench_jobs(),
            task_timeout=DEFAULT_TASK_TIMEOUT, retries=0,
            progress=lambda line: print(f"  {line}", file=sys.stderr),
        ).run()
    _fold_worker_perf(report)
    rows = {row["example"]: row for row in report.rows()}
    failed = [name for name in names if name not in rows]
    if failed:
        print(f"error: table {n}: no row for {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print(tables.format_table([rows[name] for name in names],
                              title=f"Table {n} ({args.subset})"))
    return 0


def _batch_status(run_dir: str, as_json: bool) -> int:
    """Durable-state view of a run directory: merged shards + leases."""
    import json
    from pathlib import Path

    from repro.runner import lease_stats, merge_results, read_manifest

    merged = merge_results(run_dir)
    try:
        manifest = read_manifest(run_dir)
    except FileNotFoundError:
        manifest = {}
    planned = [t.get("task") for t in manifest.get("tasks", [])
               if isinstance(t, dict)]
    done = set(merged.task_ids)
    failed = sum(1 for r in merged.records if r.get("status") == "failed")
    stolen = sum(1 for r in merged.records if r.get("epoch"))
    status = {
        "run_dir": str(Path(run_dir)),
        "status": manifest.get("status"),
        "planned": len(planned),
        "completed": len(merged.records),
        "failed": failed,
        "stolen": stolen,
        "remaining": sorted(t for t in planned if t and t not in done),
        "shards": merged.shards,
        "torn_tails": sorted(merged.torn_tails),
        "duplicates": merged.duplicates,
        "rejected": merged.rejected,
        "leases": lease_stats(run_dir),
    }
    if as_json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(f"run     : {status['run_dir']} "
              f"[{status['status'] or 'no manifest'}]")
        print(f"tasks   : {status['completed']}/{status['planned']} "
              f"journaled, {failed} failed, {stolen} stolen, "
              f"{len(status['remaining'])} remaining")
        print(f"shards  : {len(merged.shards)} "
              f"({', '.join(merged.shards) or 'none'})")
        if merged.torn_tails:
            print(f"torn    : {', '.join(status['torn_tails'])} "
                  f"(repaired on next join/resume)")
        if merged.duplicates:
            print(f"dups    : {merged.duplicates} same-shard repeats "
                  f"dropped (last won)")
        for rej in merged.rejected:
            print(f"fenced  : {rej['task']} from {rej['claimant'] or '?'} "
                  f"({rej['reason']})")
        ls = status["leases"]
        print(f"leases  : {ls['live']} live, {ls['expired']} expired, "
              f"{ls['total_epoch']} steals published, "
              f"claimants: {', '.join(ls['claimants']) or 'none'}")
    complete = (planned and not status["remaining"] and not failed)
    return 0 if complete else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    """Crash-safe parallel sweep over many machines (see README §Batch)."""
    import time as _time
    from pathlib import Path

    from repro.runner import (
        BatchRunner,
        RunDirBusy,
        tasks_for_benchmarks,
        tasks_for_kiss_dir,
    )

    if args.kiss_dir == "status":
        run_dir = args.extra or args.join or args.resume
        if not run_dir:
            print("error: usage: nova batch status RUN_DIR",
                  file=sys.stderr)
            return 2
        return _batch_status(run_dir, as_json=args.json)
    if args.extra:
        print(f"error: unexpected argument {args.extra!r}", file=sys.stderr)
        return 2

    def progress(line: str) -> None:
        print(f"  {line}", file=sys.stderr)

    def build_tasks():
        options = {}
        if args.effort:
            options["effort"] = args.effort
        if args.cache != "auto":
            options["cache"] = args.cache
        opts = options or None
        if args.kiss_dir:
            return tasks_for_kiss_dir(args.kiss_dir, args.algorithm,
                                      opts, timeout=args.task_timeout)
        return tasks_for_benchmarks(args.set, args.algorithm,
                                    opts, timeout=args.task_timeout)

    if args.resume:
        runner = BatchRunner.resume(
            args.resume,
            jobs=args.jobs,
            task_timeout=args.task_timeout,
            retries=args.retries,
            fail_fast=args.fail_fast or None,
            progress=progress,
            force=args.force,
        )
    elif args.join:
        # first joiner creates the run from the usual task sources;
        # later joiners take the task set from the manifest
        from repro.runner.journal import MANIFEST_NAME

        tasks = (None if (Path(args.join) / MANIFEST_NAME).exists()
                 else build_tasks())
        runner = BatchRunner.join(
            args.join,
            tasks=tasks,
            jobs=args.jobs,
            task_timeout=args.task_timeout,
            retries=args.retries,
            fail_fast=args.fail_fast or None,
            shuffle_seed=args.shuffle_seed,
            claimant=args.claimant,
            lease_ttl=args.lease_ttl,
            heartbeat_interval=args.heartbeat,
            progress=progress,
        )
    else:
        tasks = build_tasks()
        run_dir = args.out or f"batch-runs/{_time.strftime('%Y%m%d-%H%M%S')}"
        runner = BatchRunner(
            tasks, run_dir,
            jobs=args.jobs if args.jobs is not None else 1,
            task_timeout=args.task_timeout,
            retries=args.retries if args.retries is not None else 2,
            fail_fast=args.fail_fast,
            shuffle_seed=args.shuffle_seed,
            progress=progress,
            force=args.force,
        )
    try:
        report = runner.run()
    except RunDirBusy as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _fold_worker_perf(report)
    print(report.summary())
    if runner.join_mode:
        from repro.runner import shard_name

        print(f"shard      : {runner.run_dir / shard_name(runner.claimant)}")
        print(f"status with: nova batch status {runner.run_dir}")
    else:
        print(f"journal    : {runner.run_dir / 'results.jsonl'}")
        print(f"resume with: nova batch --resume {runner.run_dir}")
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """The benchmark observatory (see README §Benchmarking).

    Exit codes: 0 ok, 1 gate regression, 2 usage/validation error,
    3 gated suite without a baseline under ``--require-baseline``.
    """
    import json
    import time as _time
    from pathlib import Path

    from repro import bench

    trajectory = Path(args.trajectory)

    if args.action == "run":
        if not args.spec:
            print("error: usage: nova bench run SPEC.json|SPEC.toml",
                  file=sys.stderr)
            return 2
        spec = bench.load_spec(args.spec)
        stamp = _time.time()
        run_dir = args.out or (
            f"bench-runs/{spec.name}-"
            f"{_time.strftime('%Y%m%d-%H%M%S')}")

        def progress(line: str) -> None:
            print(f"  {line}", file=sys.stderr)

        record = bench.run_sweep(
            spec, run_dir,
            jobs=args.jobs,
            timestamp=stamp,
            label=args.label,
            limit=args.limit,
            repeats=args.repeats,
            progress=progress,
        )
        if args.no_append:
            records = bench.load_trajectory(trajectory) + [record]
        else:
            records = bench.append_record(trajectory, record)
        if args.json:
            print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        else:
            print(f"suite {record.suite} "
                  f"({len(record.units)} units, journal: {run_dir}):")
            for key, stats in sorted(record.units.items()):
                print(f"  {key:32s} {stats.mean * 1e3:9.2f} ms "
                      f"± {stats.std * 1e3:.2f} "
                      f"(min {stats.min * 1e3:.2f}, n={stats.samples}"
                      + (f", {stats.rejected} outliers" if stats.rejected
                         else "") + ")")
            comp = bench.compare_suite(records, record.suite)
            if comp.status == "ok" and comp.geomean_speedup is not None:
                print(f"  vs previous record: geomean speedup "
                      f"{comp.geomean_speedup:.3f}x over "
                      f"{comp.units_compared} unit(s)")
            if not args.no_append:
                print(f"  appended to {trajectory}")
        return 0

    if args.action == "compare":
        records = bench.load_trajectory(trajectory)
        suites = (args.suites.split(",") if args.suites
                  else sorted({r.suite for r in records if r.schema >= 1}))
        comps = [bench.compare_suite(records, s.strip())
                 for s in suites if s.strip()]
        if args.json:
            print(json.dumps([c.to_dict() for c in comps], indent=2,
                             sort_keys=True))
        else:
            if not comps:
                print(f"no comparable suites in {trajectory}")
            for c in comps:
                if c.status == "ok" and c.geomean_speedup is not None:
                    worst = min(c.unit_speedups.items(),
                                key=lambda kv: kv[1])
                    print(f"{c.suite:12s} geomean {c.geomean_speedup:.3f}x "
                          f"over {c.units_compared} unit(s); worst "
                          f"{worst[0]} {worst[1]:.3f}x")
                else:
                    print(f"{c.suite:12s} {c.status}")
        return 0

    # action == "gate"
    records = bench.load_trajectory(trajectory)
    suites = (tuple(s.strip() for s in args.suites.split(",")
                    if s.strip())
              if args.suites else bench.DEFAULT_GATE_SUITES)
    result = bench.gate(records, args.max_regress, suites=suites)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        for c in result.comparisons:
            if c.status == "ok" and c.geomean_speedup is not None:
                verdict = ("REGRESSED" if c.suite in result.regressions
                           else "ok")
                print(f"{c.suite:12s} geomean "
                      f"{c.geomean_speedup:.3f}x  {verdict}")
            else:
                print(f"{c.suite:12s} no baseline ({c.status})")
        limit = 1.0 - args.max_regress / 100.0
        print(f"gate: max regression {args.max_regress:.0f}% "
              f"(geomean floor {limit:.2f}x) -> "
              + ("FAIL" if result.regressions else "pass"))
    if result.regressions:
        return 1
    if args.require_baseline and result.missing:
        print(f"error: no comparable baseline for gated suite(s): "
              f"{', '.join(result.missing)}", file=sys.stderr)
        return 3
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or manage the on-disk encode cache (see README §Caching)."""
    import json

    from repro import cache

    if args.action == "info":
        out = cache.cache_info()
    elif args.action == "clear":
        out = cache.cache_clear()
    else:
        out = cache.cache_prune(args.max_bytes)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in benchmark_names("all"):
        print(f"{name:12s} {benchmark(name)!r}")
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    """Two-level minimization of an espresso PLA file."""
    from repro.logic.espresso import espresso
    from repro.logic.exact import TooLarge, exact_minimize
    from repro.logic.pla_io import parse_pla, write_pla
    from repro.logic.verify import verify_minimization

    with open(args.file) as f:
        pla = parse_pla(f.read())
    if args.exact:
        try:
            result = exact_minimize(pla.on, pla.dc)
        except TooLarge as exc:
            print(f"error: instance too large for exact ({exc}); "
                  f"use the heuristic", file=sys.stderr)
            return 1
    else:
        off = pla.off if len(pla.off) else None
        result = espresso(pla.on, pla.dc, off=off, effort=args.effort)
    if not verify_minimization(result, pla.on, pla.dc,
                               pla.off if len(pla.off) else None):
        print("internal error: result failed verification", file=sys.stderr)
        return 1
    print(write_pla(result, pla.num_binary), end="")
    print(f"# {len(pla.on)} -> {len(result)} cubes", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Static analysis of a machine (reachability, determinism, STG)."""
    from repro.fsm.analysis import analyze, to_dot, unreachable_states

    fsm = _load_fsm(args)
    if fsm is None:
        return 2
    stats = analyze(fsm)
    print(f"machine       : {fsm!r}")
    print(f"reachable     : {stats.reachable}/{stats.states}")
    if stats.reachable < stats.states:
        print(f"unreachable   : {', '.join(unreachable_states(fsm))}")
    print(f"deterministic : {stats.deterministic}")
    print(f"coverage      : {stats.coverage:.2%}")
    print(f"max fan-in    : {stats.max_fan_in}")
    print(f"max fan-out   : {stats.max_fan_out}")
    print(f"self loops    : {stats.self_loops}")
    if args.dot:
        with open(args.dot, "w") as f:
            f.write(to_dot(fsm))
        print(f"STG written to {args.dot}")
    return 0


def _lint_baseline_key(entry) -> tuple:
    """Identity of a finding for baseline matching: path + rule +
    message, deliberately NOT line/col — unrelated edits move lines,
    and a baseline that rots on every shift is a baseline nobody
    trusts."""
    return (entry["path"], entry["rule"], entry["message"])


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis of the *codebase*: the NV001-NV010 invariants."""
    import json as json_mod

    from repro.analysis import REGISTRY, instantiate_rules, lint_paths

    if args.list_rules:
        for rule_id in sorted(REGISTRY):
            print(f"{rule_id}  {REGISTRY[rule_id]().title}")
        return 0
    if args.explain:
        rule_id = args.explain.strip()
        if rule_id not in REGISTRY:
            print(f"error: unknown rule {rule_id!r}; "
                  f"available: {', '.join(sorted(REGISTRY))}",
                  file=sys.stderr)
            return 2
        rule = REGISTRY[rule_id]()
        doc = (sys.modules[type(rule).__module__].__doc__
               or type(rule).__doc__ or "(no documentation)")
        print(f"{rule_id}: {rule.title}\n")
        print(doc.strip())
        return 0
    if not args.paths:
        print("error: give at least one file or directory to lint",
              file=sys.stderr)
        return 2
    if args.update_baseline and not args.baseline:
        print("error: --update-baseline needs --baseline FILE to name "
              "the file to write", file=sys.stderr)
        return 2
    only = None
    if args.rules is not None:
        only = []
        for raw in args.rules.split(","):
            rule_id = raw.strip()
            if rule_id and rule_id not in only:
                only.append(rule_id)
        if not only:
            # "--rules ," etc. must not silently lint with zero rules
            # and report a clean exit 0
            print(f"error: --rules selected no rules; "
                  f"available: {', '.join(sorted(REGISTRY))}",
                  file=sys.stderr)
            return 2
    try:
        rules = instantiate_rules(only)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    result = lint_paths(args.paths, rules=rules)
    if args.update_baseline:
        payload = {
            "schema": 1,
            "findings": sorted((f.to_dict() for f in result.findings),
                               key=_lint_baseline_key),
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json_mod.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.baseline}: "
              f"{len(result.findings)} finding(s) recorded",
              file=sys.stderr)
        return 0
    baselined = 0
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                data = json_mod.load(fh)
            known = {_lint_baseline_key(e) for e in data["findings"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: unreadable baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
        fresh = [f for f in result.findings
                 if _lint_baseline_key(f.to_dict()) not in known]
        baselined = len(result.findings) - len(fresh)
        result.findings = fresh
    if args.json:
        payload = result.to_dict()
        payload["baselined"] = baselined
        # the rules that actually ran, so tooling can distinguish "no
        # findings" from "nothing was checked"
        payload["rules"] = [rule.id for rule in rules]
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding.render())
        print(f"{len(result.findings)} finding(s) in {result.files} "
              f"file(s), {result.suppressed} suppressed, "
              f"{baselined} baselined "
              f"({len(rules)} rules active)", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the encode service (see README §Serving and DESIGN §6.10)."""
    import asyncio
    import json

    from repro.server import EncodeService, run_server

    worker_faults = []
    for spec in args.fault or []:
        # test/bench harness knob: ship a fault plan into every worker
        worker_faults.append(json.loads(spec))
    service = EncodeService(
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_timeout=args.default_timeout or None,
        max_timeout=args.max_timeout or None,
        kill_grace=args.kill_grace,
        rescue_timeout=args.rescue_timeout,
        cache_policy=args.cache,
        worker_faults=worker_faults,
    )
    return asyncio.run(run_server(
        service, host=args.host, port=args.port,
        read_timeout=args.read_timeout,
        drain_timeout=args.drain_timeout))


def _cmd_verify(args: argparse.Namespace) -> int:
    """Encode a machine and independently verify the result."""
    from repro.encoding.nova import encode_fsm
    from repro.encoding.verify import verify_encoded_machine

    fsm = _load_fsm(args)
    if fsm is None:
        return 2
    result = encode_fsm(fsm, args.algorithm, effort=args.effort)
    report = verify_encoded_machine(fsm, result.state_encoding, result.pla,
                                    result.symbol_encoding,
                                    result.out_symbol_encoding)
    print(f"algorithm : {result.algorithm}")
    print(f"checked   : {report.checked_pairs} (state, input) pairs")
    if report.ok:
        print("verdict   : OK — encoded PLA matches the machine exactly")
        return 0
    print("verdict   : MISMATCH")
    for m in report.mismatches[:20]:
        print(f"  {m}")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nova",
        description="NOVA state assignment (reproduction of Villa & "
                    "Sangiovanni-Vincentelli, TCAD 1990)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="collect substrate perf counters (tautology calls, URP "
             "recursions, cache hits, pass times) and print a summary "
             "to stderr when the command finishes; NOVA_PERF=1 in the "
             "environment does the same")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode one machine")
    enc.add_argument("file", nargs="?", help="KISS2 file")
    enc.add_argument("--benchmark", help="benchmark machine name")
    enc.add_argument("--algorithm", default="ihybrid", choices=ALGORITHMS)
    enc.add_argument("--bits", type=int, default=None)
    enc.add_argument("--effort", default="full", choices=("full", "low"))
    enc.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                     help="wall-clock budget for the whole run; on "
                          "exhaustion the pipeline degrades along the "
                          "fallback chain instead of overrunning")
    enc.add_argument("--no-fallback", action="store_true",
                     help="fail (with a taxonomy exit code) instead of "
                          "degrading iexact -> ihybrid -> igreedy -> onehot")
    enc.add_argument("--seed", type=int, default=None, metavar="N",
                     help="RNG seed for stochastic algorithms (random); "
                          "seeded runs are deterministic and cacheable")
    enc.add_argument("--cache", default="auto", choices=CACHE_POLICIES,
                     help="result-cache policy: auto follows NOVA_CACHE/"
                          "NOVA_CACHE_DIR, on forces the two-tier cache, "
                          "memory keeps only the in-process LRU, off "
                          "disables lookups and fills")
    enc.set_defaults(func=_cmd_encode)

    tab = sub.add_parser(
        "table", help="regenerate a paper table",
        description="Run one row task per machine on the batch runner "
                    "(NOVA_BENCH_JOBS workers, 900 s hard kill per row) "
                    "and print the table; exits 1 naming any row that "
                    "failed.")
    tab.add_argument("number", type=int)
    tab.add_argument("--subset", default="small",
                     choices=("small", "paper30", "table5", "table7", "all"),
                     help="intersected with the table's own machine set, "
                          "in paper order; 'all' is the full protocol")
    tab.set_defaults(func=_cmd_table)

    bat = sub.add_parser(
        "batch",
        help="crash-safe parallel sweep over many machines",
        description="Fan encodes out over isolated worker processes with "
                    "hard per-task timeouts, retries down the degradation "
                    "ladder, and a durable results.jsonl journal; an "
                    "interrupted run resumes with --resume RUN_DIR. "
                    "N cooperating processes (one per host is fine) share "
                    "one run with --join RUN_DIR; inspect any run with "
                    "'nova batch status RUN_DIR'.")
    bat.add_argument("kiss_dir", nargs="?",
                     help="directory of .kiss/.kiss2 files to encode, or "
                          "the literal word 'status' (then: status RUN_DIR)")
    bat.add_argument("extra", nargs="?", help=argparse.SUPPRESS)
    bat.add_argument("--set", default="small",
                     choices=("small", "paper30", "table5", "table7", "all"),
                     help="builtin benchmark subset (when no KISS dir)")
    bat.add_argument("--algorithm", default="ihybrid", choices=ALGORITHMS)
    bat.add_argument("--effort", default=None, choices=("full", "low"),
                     help="pin minimization effort (default: per-machine)")
    bat.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="max concurrent worker processes (default 1)")
    bat.add_argument("--task-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="hard wall-clock limit per attempt; the worker "
                          "process is killed on expiry and the task retried "
                          "at the next ladder rung")
    bat.add_argument("--retries", type=int, default=None, metavar="N",
                     help="extra attempts per task after the first "
                          "(default 2)")
    bat.add_argument("--resume", metavar="RUN_DIR",
                     help="resume this run directory, skipping journaled "
                          "tasks")
    bat.add_argument("--join", metavar="RUN_DIR",
                     help="work-stealing mode: cooperate with other "
                          "claimant processes on one run directory; the "
                          "first joiner creates the manifest from the "
                          "usual task options, later joiners inherit it")
    bat.add_argument("--claimant", metavar="NAME", default=None,
                     help="stable claimant id for --join (default: "
                          "host-pid-random); names this process's journal "
                          "shard, so it must be unique among live joiners")
    bat.add_argument("--lease-ttl", type=float, default=None,
                     metavar="SECONDS",
                     help="seconds without a heartbeat before a claimant's "
                          "task leases may be stolen (default 15)")
    bat.add_argument("--heartbeat", type=float, default=None,
                     metavar="SECONDS",
                     help="lease renewal interval for --join "
                          "(default: lease-ttl / 3)")
    bat.add_argument("--json", action="store_true",
                     help="machine-readable output for 'batch status'")
    bat.add_argument("--fail-fast", action="store_true",
                     help="stop the whole batch at the first task that "
                          "exhausts its retries")
    bat.add_argument("--shuffle-seed", type=int, default=None, metavar="N",
                     help="deterministically shuffle task start order")
    bat.add_argument("--force", action="store_true",
                     help="run even if the manifest records a live batch "
                          "parent for this run directory")
    bat.add_argument("--cache", default="auto", choices=CACHE_POLICIES,
                     help="result-cache policy for the workers (the disk "
                          "tier is shared across processes, so a warm "
                          "sweep short-circuits every already-encoded "
                          "task)")
    bat.add_argument("--out", metavar="RUN_DIR",
                     help="run directory (default batch-runs/<timestamp>)")
    bat.set_defaults(func=_cmd_batch)

    bch = sub.add_parser(
        "bench",
        help="run benchmark sweeps and gate the performance trajectory",
        description="The benchmark observatory: 'run' executes a "
                    "declarative SweepSpec (JSON/TOML) through the batch "
                    "runner with variance-controlled timing and appends "
                    "one record to BENCH_TRAJECTORY.json; 'compare' "
                    "reports per-suite speedup vs the previous record; "
                    "'gate' fails (exit 1) when any gated suite's "
                    "geomean speedup regresses more than --max-regress "
                    "percent. See README §Benchmarking.")
    bch.add_argument("action", choices=("run", "compare", "gate"))
    bch.add_argument("spec", nargs="?",
                     help="sweep spec file for 'run' "
                          "(e.g. benchmarks/specs/substrate.json)")
    bch.add_argument("--trajectory", default="BENCH_TRAJECTORY.json",
                     metavar="PATH",
                     help="trajectory store (default BENCH_TRAJECTORY.json)")
    bch.add_argument("--repeats", type=int, default=None, metavar="N",
                     help="override the spec's timed samples per unit")
    bch.add_argument("--limit", type=int, default=None, metavar="N",
                     help="cap the machine list (CI quick slice)")
    bch.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes (default: configured "
                          "bench_jobs)")
    bch.add_argument("--label", default="", metavar="STR",
                     help="free-form provenance label for the record "
                          "(PR number, git sha, ...)")
    bch.add_argument("--out", metavar="RUN_DIR",
                     help="journal directory for 'run' "
                          "(default bench-runs/<suite>-<timestamp>)")
    bch.add_argument("--no-append", action="store_true",
                     help="run without writing to the trajectory")
    bch.add_argument("--suites", metavar="NAMES", default=None,
                     help="comma-separated suite list for compare/gate "
                          "(default gate set: substrate,table3,table6,"
                          "table7)")
    bch.add_argument("--max-regress", type=float, default=10.0,
                     metavar="PCT",
                     help="gate threshold: fail when a suite's geomean "
                          "speedup drops below 1 - PCT/100 (default 10)")
    bch.add_argument("--require-baseline", action="store_true",
                     help="gate: exit 3 when a gated suite has no "
                          "comparable baseline instead of passing it")
    bch.add_argument("--json", action="store_true",
                     help="machine-readable output")
    bch.set_defaults(func=_cmd_bench)

    cch = sub.add_parser(
        "cache",
        help="inspect or manage the encode result cache",
        description="The two-tier content-addressed encode cache: an "
                    "in-process LRU over one-JSON-blob-per-key storage "
                    "under NOVA_CACHE_DIR (default ~/.cache/nova). "
                    "See README §Caching.")
    cch.add_argument("action", choices=("info", "clear", "prune"))
    cch.add_argument("--max-bytes", type=int, default=None, metavar="N",
                     help="prune target (default: the configured "
                          "NOVA_CACHE_MAX_BYTES budget)")
    cch.set_defaults(func=_cmd_cache)

    lst = sub.add_parser("list", help="list benchmark machines")
    lst.set_defaults(func=_cmd_list)

    mini = sub.add_parser("minimize", help="minimize an espresso PLA file")
    mini.add_argument("file")
    mini.add_argument("--exact", action="store_true",
                      help="exact (Quine-McCluskey) instead of heuristic")
    mini.add_argument("--effort", default="full", choices=("full", "low"))
    mini.set_defaults(func=_cmd_minimize)

    ana = sub.add_parser("analyze", help="static analysis of a machine")
    ana.add_argument("file", nargs="?", help="KISS2 file")
    ana.add_argument("--benchmark", help="benchmark machine name")
    ana.add_argument("--dot", help="write the STG as Graphviz to this file")
    ana.set_defaults(func=_cmd_analyze)

    lint = sub.add_parser(
        "lint",
        help="check the codebase's pipeline invariants (NV001-NV010)",
        description="AST- and dataflow-based static analysis enforcing "
                    "the repo's correctness contracts: cache-key "
                    "completeness, budget coverage of hot loops, "
                    "atomic-write discipline, the error taxonomy, "
                    "encode-path determinism, spawn-safety of worker "
                    "modules, lease/fencing discipline in the "
                    "work-stealing runner, async hygiene on the event "
                    "loop, resource lifetimes, and config discipline "
                    "for NOVA_* variables. "
                    "Exit 0 clean, 1 findings, 2 usage error.")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (e.g. src/repro)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable findings on stdout")
    lint.add_argument("--rules", metavar="IDS",
                      help="comma-separated rule subset (e.g. NV001,NV004)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    lint.add_argument("--explain", metavar="RULE",
                      help="print the full rationale for one rule "
                           "(the invariant, why it matters, what "
                           "counts as a finding) and exit")
    lint.add_argument("--baseline", metavar="FILE",
                      help="JSON baseline of tolerated findings; "
                           "matches on (path, rule, message) so "
                           "line drift does not invalidate it")
    lint.add_argument("--update-baseline", action="store_true",
                      help="write the current findings to --baseline "
                           "FILE and exit 0")
    lint.set_defaults(func=_cmd_lint)

    srv = sub.add_parser(
        "serve",
        help="run the encode service (HTTP, asyncio)",
        description="An asyncio HTTP front end over encode_fsm: "
                    "single-flight coalescing on the cache fingerprint, "
                    "bounded admission (429 + Retry-After under "
                    "overload), per-request deadlines with graceful "
                    "degradation down the fallback ladder, and a "
                    "cache-warm load-shed path. POST /encode, "
                    "GET /healthz, GET /stats. See README §Serving.")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8573,
                     help="TCP port (0 picks an ephemeral one; the bound "
                          "port is printed as a JSON line on stdout)")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="concurrent cold computations (worker processes)")
    srv.add_argument("--queue-limit", type=int, default=8, metavar="N",
                     help="cold requests allowed to wait for a worker "
                          "slot before new ones get 429")
    srv.add_argument("--default-timeout", type=float, default=30.0,
                     metavar="SECONDS",
                     help="per-request deadline when the client sends "
                          "none (0 disables)")
    srv.add_argument("--max-timeout", type=float, default=300.0,
                     metavar="SECONDS",
                     help="cap on client-requested deadlines")
    srv.add_argument("--kill-grace", type=float, default=2.0,
                     metavar="SECONDS",
                     help="extra wall-clock past the cooperative deadline "
                          "before a worker is hard-killed")
    srv.add_argument("--rescue-timeout", type=float, default=2.0,
                     metavar="SECONDS",
                     help="emergency allowance for degradation rungs "
                          "after a kill/crash consumed the deadline")
    srv.add_argument("--read-timeout", type=float, default=10.0,
                     metavar="SECONDS",
                     help="slow-client guard: max time to read a request")
    srv.add_argument("--drain-timeout", type=float, default=5.0,
                     metavar="SECONDS",
                     help="how long SIGTERM lets in-flight requests "
                          "finish before cancelling them")
    srv.add_argument("--cache", default="auto", choices=CACHE_POLICIES,
                     help="result-cache policy (the warm/load-shed path "
                          "needs at least 'memory')")
    srv.add_argument("--fault", action="append", metavar="JSON",
                     help="test harness: a repro.testing.faults.Fault "
                          "spec (JSON) armed inside every worker; "
                          "repeatable")
    srv.set_defaults(func=_cmd_serve)

    ver = sub.add_parser("verify",
                         help="encode and independently verify a machine")
    ver.add_argument("file", nargs="?", help="KISS2 file")
    ver.add_argument("--benchmark", help="benchmark machine name")
    ver.add_argument("--algorithm", default="ihybrid", choices=ALGORITHMS)
    ver.add_argument("--effort", default="full", choices=("full", "low"))
    ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    from repro import perf

    try:
        if args.stats or perf.enabled():
            with perf.collect() as stats:
                rc = args.func(args)
            print(stats.summary(), file=sys.stderr)
            return rc
        return args.func(args)
    except ReproError as exc:
        # one-line diagnostic, distinct exit code per error class:
        # 2 corrupt run-dir state (journal/manifest), 3 parse,
        # 4 constraint, 5 budget, 6 infeasible, 7 verification,
        # 8 service (overload/deadline/server config)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except ValueError as exc:
        # environment/config validation (e.g. a typo'd NOVA_CACHE)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
