"""Crash-safe parallel batch-encoding engine.

One :class:`BatchRunner` fans a list of :class:`BatchTask` out over a
pool of isolated, reusable worker *processes* (``multiprocessing``
spawn context), enforces a per-task hard wall-clock timeout by killing the
worker, retries failed or killed tasks down the degradation ladder
(``iexact → ihybrid → igreedy → onehot``), and journals every outcome
as one durable JSON line so a crashed or interrupted run resumes
exactly where it left off.

The joined mode (:meth:`BatchRunner.join`) extends this to N
cooperating claimant processes over one run directory: per-task leases
with fencing epochs coordinate who runs what, per-claimant journal
shards keep the single-writer invariant, and :func:`merge_results`
folds the shards into one deterministic task→record view.

Layout
------
``batch``
    The engine: task model, scheduling loop, hard kills, retry ladder,
    and the work-stealing claim loop.
``worker``
    The worker process loop (load the machine, arm injected faults, run
    the pipeline, ship a JSON-safe outcome back over a pipe, repeat
    until retired) and the parent-side :class:`~repro.runner.worker.Worker`
    handle the encode service's pool shares.
``journal``
    Durability: fsync'd append-only journal shards (flock-guarded,
    single writer each), the fencing merge, plus an atomic
    (``os.replace``) ``manifest.json``; tolerant loaders for resume.
``lease``
    The claim table: atomic exclusive-create claims, heartbeats, and
    stale-lease stealing at ``epoch + 1``.
``report``
    Aggregation of journal entries into one :class:`BatchReport`
    (status counts, retries, kill reasons, fallbacks, merged perf
    counters, steal/fence provenance).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.errors import JournalError

if TYPE_CHECKING:
    from repro.runner.batch import (
        BatchRunner,
        BatchTask,
        RunDirBusy,
        tasks_for_benchmarks,
        tasks_for_kiss_dir,
    )
    from repro.runner.journal import (
        Journal,
        JournalReadResult,
        MergeResult,
        merge_results,
        read_manifest,
        read_results,
        repair,
        shard_name,
        shard_paths,
        write_manifest,
    )
    from repro.runner.lease import (
        Lease,
        LeaseDir,
        default_claimant,
        lease_stats,
    )
    from repro.runner.report import BatchReport, aggregate

__all__ = [
    "BatchRunner",
    "BatchTask",
    "BatchReport",
    "RunDirBusy",
    "Journal",
    "JournalError",
    "JournalReadResult",
    "Lease",
    "LeaseDir",
    "MergeResult",
    "aggregate",
    "default_claimant",
    "lease_stats",
    "merge_results",
    "read_manifest",
    "read_results",
    "repair",
    "shard_name",
    "shard_paths",
    "tasks_for_benchmarks",
    "tasks_for_kiss_dir",
    "write_manifest",
]

# a spawned worker imports this package for repro.runner.worker alone:
# the engine, journal, lease and report modules load on first use
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.runner.batch": (
        "BatchRunner", "BatchTask", "RunDirBusy", "tasks_for_benchmarks",
        "tasks_for_kiss_dir"),
    "repro.runner.journal": (
        "Journal", "JournalReadResult", "MergeResult", "merge_results",
        "read_manifest", "read_results", "repair", "shard_name",
        "shard_paths", "write_manifest"),
    "repro.runner.lease": (
        "Lease", "LeaseDir", "default_claimant", "lease_stats"),
    "repro.runner.report": ("BatchReport", "aggregate"),
})
