"""Compile a :class:`~repro.bench.spec.SweepSpec` onto the batch runner.

The sweep engine reuses the fleet machinery instead of growing its own
timing loop: every (machine, algorithm, seed) unit of the spec becomes
``warmup + repeats`` :class:`~repro.runner.batch.BatchTask` attempts,
executed by a :class:`~repro.runner.batch.BatchRunner` (serial or
``jobs``-wide), and the per-run durations are read back out of the
journaled entries.  That buys the sweep everything the runner already
guarantees — process isolation per sample, hard timeout kills, a
durable per-sample provenance journal — for free.

Two deliberate departures from normal batch behaviour:

* ``retries=0`` — the runner's degradation ladder re-runs a failed task
  at the *next* algorithm rung, which for timing would silently record
  a different algorithm's duration under the unit's name.  A failed
  sample is dropped and counted instead.
* samples come from *inside* the worker (``record["seconds"]`` for
  encode tasks, the worker-side attempt ``elapsed`` for table rows),
  never from the parent's wall clock, so process spawn and journal
  overhead are excluded from the measurement.

Cache policy follows the spec (default ``"off"``): encode tasks carry
it in their options; table tasks inherit it through the environment the
workers are spawned with, since table rows encode internally with
their own defaults.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import config as config_mod
from repro.bench.record import BenchRecord, capture_environment
from repro.bench.spec import SweepSpec
from repro.bench.timing import summarize
from repro.fsm.benchmarks import benchmark_names
from repro.runner.batch import BatchRunner, BatchTask

__all__ = [
    "compile_tasks",
    "run_sweep",
]

#: task-id suffixes: warmup attempts are journaled but never sampled
_WARM = "w"
_REP = "r"


def compile_tasks(spec: SweepSpec,
                  machines: Optional[Sequence[str]] = None,
                  ) -> List[BatchTask]:
    """The flat task list one sweep executes: units × (warmup+repeats).

    Task ids are ``<unit-key>@r<i>`` (timed) and ``<unit-key>@w<i>``
    (warmup), which is what lets :func:`run_sweep` fold journal entries
    back into per-unit sample lists.
    """
    tasks: List[BatchTask] = []
    for key, machine, algo, seed in spec.units(
            list(machines) if machines is not None else None):
        options: Dict[str, object] = dict(spec.options)
        if spec.kind == "encode":
            options["cache"] = spec.cache
            if seed is not None:
                options["seed"] = seed
        runs = ([(_WARM, i) for i in range(spec.warmup)]
                + [(_REP, i) for i in range(spec.repeats)])
        for tag, i in runs:
            tasks.append(BatchTask(
                machine=machine,
                algorithm=algo,
                kind=spec.kind,
                table=spec.table,
                options=options if spec.kind == "encode" else {},
                task_id=f"{key}@{tag}{i}",
            ))
    return tasks


def _sample_of(entry: Dict, kind: str) -> Optional[float]:
    """The in-worker duration of one journal entry, or None to drop it.

    Only clean ``ok`` runs count: a ``degraded`` encode ran a different
    algorithm than the unit's name claims, and a failed/killed attempt
    measured nothing.  Cache hits are dropped too — they time a lookup.
    """
    if entry.get("status") != "ok" or entry.get("cache_hit"):
        return None
    if kind == "encode":
        record = entry.get("record") or {}
        seconds = record.get("seconds")
    else:
        attempts = entry.get("attempts") or []
        seconds = attempts[-1].get("elapsed") if attempts else None
    if not isinstance(seconds, (int, float)) or seconds < 0:
        return None
    return float(seconds)


def run_sweep(
    spec: SweepSpec,
    run_dir: Union[str, Path],
    *,
    jobs: Optional[int] = None,
    timestamp: Optional[float] = None,
    label: str = "",
    limit: Optional[int] = None,
    repeats: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    runner_factory: Optional[Callable[..., object]] = None,
) -> BenchRecord:
    """Execute *spec* and summarize it into one :class:`BenchRecord`.

    ``jobs`` defaults to the runtime config's ``bench_jobs``; ``limit``
    caps the machine list (the CI quick slice) and ``repeats``
    overrides the spec's sample count — both overrides are recorded in
    the emitted record's ``spec`` snapshot so trajectory comparisons
    only align genuinely comparable runs.  *runner_factory* lets tests
    substitute a fake runner; it receives the compiled task list plus
    the :class:`BatchRunner` keyword arguments and must return an
    object whose ``run()`` yields a report with ``entries``.
    """
    if repeats is not None:
        spec = spec.replace(repeats=repeats)
    machines = (list(spec.machines) if spec.machines
                else benchmark_names(spec.subset))
    dropped_machines = 0
    if limit is not None and limit < len(machines):
        dropped_machines = len(machines) - limit
        machines = machines[:limit]
        if progress is not None:
            progress(f"{spec.name}: --limit {limit} dropped "
                     f"{dropped_machines} machine(s)")
    tasks = compile_tasks(spec, machines)
    width = config_mod.bench_jobs() if jobs is None else max(1, int(jobs))

    factory = BatchRunner if runner_factory is None else runner_factory
    env_cache = (spec.kind == "table" and spec.cache != "auto")
    saved = os.environ.get("NOVA_CACHE")  # nova-lint: disable=NV010 -- save-for-restore, not a policy read; the env var is the only channel reaching spawned workers
    if env_cache:
        # table rows encode with their own option defaults inside the
        # worker; the env is the only channel that reaches them
        os.environ["NOVA_CACHE"] = spec.cache
    try:
        runner = factory(
            tasks, Path(run_dir),
            jobs=width,
            task_timeout=spec.task_timeout,
            retries=0,
            force=True,
            progress=progress,
        )
        report = runner.run()
    finally:
        if env_cache:
            if saved is None:
                os.environ.pop("NOVA_CACHE", None)
            else:
                os.environ["NOVA_CACHE"] = saved

    by_task: Dict[str, Dict] = {e["task"]: e
                                for e in getattr(report, "entries", [])}
    units = {}
    dropped: Dict[str, int] = {}
    for key, _machine, _algo, _seed in spec.units(machines):
        samples = []
        lost = 0
        for i in range(spec.repeats):
            entry = by_task.get(f"{key}@{_REP}{i}")
            sample = None if entry is None else _sample_of(entry, spec.kind)
            if sample is None:
                lost += 1
            else:
                samples.append(sample)
        if lost:
            dropped[key] = lost
        if samples:
            units[key] = summarize(samples)
    if not units:
        raise ValueError(
            f"sweep {spec.name!r} produced no usable samples "
            f"({len(tasks)} tasks; journal: {run_dir})")

    notes: Dict[str, object] = {}
    if dropped:
        notes["dropped_samples"] = dropped
    if dropped_machines:
        notes["machines_dropped_by_limit"] = dropped_machines
    return BenchRecord(
        suite=spec.name,
        units=units,
        environment=capture_environment(),
        timestamp=timestamp,
        label=label,
        spec={**spec.to_dict(), "machines": list(machines),
              "jobs": width, "limit": limit},
        notes=notes,
    )
