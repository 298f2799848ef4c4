"""The batch engine: isolated workers, hard kills, retry ladder, resume.

Why processes and SIGKILL, when the pipeline already threads a
cooperative :class:`repro.perf.Budget` deadline through every stage?
Because the Budget can only fire where code *checks* it: a pathological
recursion between check sites, a stuck C-level loop, or an allocation
storm on a wide machine (the ``scf``-class blowups) never reaches the
next ``charge()``.  The only bound that always holds is an outer
process boundary — the parent watches the wall clock and kills the
worker outright, then retries the task at the next rung of the
degradation ladder (``iexact → ihybrid → igreedy → onehot``), the same
order :func:`repro.encoding.nova.encode_fsm` uses *inside* a healthy
process.

Crash safety is asymmetric by design: workers never touch the journal;
the parent appends one durable line per finished task.  A parent killed
mid-run leaves a valid journal prefix, and ``resume`` skips exactly the
journaled task ids.  Workers are spawned (not forked), so none inherits
the parent's caches, and are reused across tasks: the runner keeps up
to ``jobs`` idle workers and closes every one before :meth:`run`
returns.  A worker that ran a fault-armed attempt or any attempt that
did not end ``ok``/``degraded`` retires instead of being reused, and a
killed or crashed worker is simply gone (:mod:`repro.runner.worker`),
so no half-poisoned state from a previous fault reaches the next task.

The *joined* mode (``BatchRunner.join`` / ``nova batch --join``)
generalizes this to N cooperating parents: each claimant process takes
per-task leases (:mod:`repro.runner.lease`), appends to its own journal
shard (single-writer invariant preserved per shard, enforced by the
shard's ``flock``), heartbeats its in-flight claims, and steals tasks
whose claimant stopped heartbeating.  A serial run is the same claim
loop with one claimant and no lease table.  A joined claimant computes
done-ness from the *merged* shard view, so claimants converge on
exactly the manifest task set no matter which of them live or die — and
the fencing epoch recorded in every shard row makes the merged result
set deterministic even when a presumed-dead zombie finishes anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import get_context
import os
from pathlib import Path
import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from repro.encoding.nova import fallback_chain
from repro.errors import JournalError
from repro.runner import journal as journal_mod
from repro.runner.journal import (
    Journal,
    merge_results,
    read_manifest,
    repair,
    shard_name,
    write_manifest,
)
from repro.runner.lease import (
    DEFAULT_TTL,
    Lease,
    LeaseDir,
    default_claimant,
)
from repro.runner.report import BatchReport, aggregate
from repro.runner.worker import (
    REUSABLE_STATUSES,
    Attempt,
    Worker,
    attempt_record,
    take_idle,
    watch,
)


class RunDirBusy(RuntimeError):
    """Another live batch parent already owns this run directory.

    Two parents appending to the same ``results.jsonl`` would journal
    duplicate rows; resume is only safe once the recorded parent is
    dead.  Pass ``force=True`` (CLI: ``--force``) to override when the
    liveness check is a false positive (pid reuse).
    """


def _pid_alive(pid) -> bool:
    """Best-effort liveness check for the pid recorded in a manifest."""
    try:
        pid = int(pid)
    except (TypeError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


@dataclass
class BatchTask:
    """One unit of fleet work: a machine plus what to run on it.

    ``machine`` is a benchmark name or a path to a KISS2 file.
    ``kind`` is ``"encode"`` (one :func:`encode_fsm` run; ``options``
    are passed through) or ``"table"`` (one paper-table row;
    ``table`` picks which).  ``faults`` carries serialized
    :class:`repro.testing.faults.Fault` specs armed inside the worker —
    the robustness tests' handle for planting hangs and crashes.  Each
    attempt arms a *fresh* plan (a worker that armed faults retires
    after the attempt, so a retry runs on a new process), so fired
    counters don't carry across retries; scope a transient fault with
    ``match={"algorithm": ...}`` on the ladder rung it should hit.
    """

    machine: str
    algorithm: str = "ihybrid"
    kind: str = "encode"
    table: Optional[int] = None
    options: Dict = field(default_factory=dict)
    faults: List[Dict] = field(default_factory=list)
    task_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("encode", "table"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "table" and self.table is None:
            raise ValueError("table tasks need a table number")
        if not self.task_id:
            if self.kind == "table":
                self.task_id = f"table{self.table}:{self.machine}"
            else:
                self.task_id = f"{self.algorithm}:{self.machine}"

    def spec(self) -> Dict:
        """JSON-safe form, used both for the manifest and the worker."""
        return {
            "task": self.task_id,
            "machine": self.machine,
            "algorithm": self.algorithm,
            "kind": self.kind,
            "table": self.table,
            "options": dict(self.options),
            "faults": [dict(f) for f in self.faults],
        }

    @classmethod
    def from_spec(cls, d: Dict) -> "BatchTask":
        return cls(
            machine=d["machine"],
            algorithm=d.get("algorithm", "ihybrid"),
            kind=d.get("kind", "encode"),
            table=d.get("table"),
            options=dict(d.get("options") or {}),
            faults=list(d.get("faults") or []),
            task_id=d.get("task", ""),
        )

    def ladder(self) -> Sequence[str]:
        """Algorithms to use on successive attempts (degradation order)."""
        if self.kind != "encode":
            return (self.algorithm,)
        return fallback_chain(self.algorithm)


class _Active:
    """Book-keeping for one task while its attempts run."""

    __slots__ = ("task", "attempt", "run", "task_t0", "attempts", "lease",
                 "epoch")

    def __init__(self, task: BatchTask, attempt: int, run: Optional[Attempt],
                 task_t0: float, attempts: List[Dict],
                 lease: Optional[Lease] = None,
                 epoch: Optional[int] = None) -> None:
        self.task = task
        self.attempt = attempt  # 0-based attempt index
        self.run = run  # None once the attempt has ended
        self.task_t0 = task_t0
        self.attempts = attempts  # attempt records accumulated so far
        # joined-mode state: the held lease (dropped to None if stolen
        # out from under us) and the fencing epoch the claim was won at
        # (kept even after the lease is lost — it stamps the journal row)
        self.lease = lease
        self.epoch = (lease.epoch if epoch is None and lease is not None
                      else epoch)


class BatchRunner:
    """Run *tasks* to completion, journaling into *run_dir*.

    Parameters
    ----------
    jobs:
        Maximum concurrent worker processes (also the most kept idle
        for reuse).
    task_timeout:
        Hard wall-clock seconds per *attempt*; on expiry the worker is
        SIGKILLed and the task retried at the next ladder rung.
    retries:
        Extra attempts after the first (so ``retries=2`` means at most
        3 attempts per task).
    fail_fast:
        Stop scheduling and kill in-flight work as soon as one task
        exhausts its attempts.
    shuffle_seed:
        Deterministically shuffle task start order (load balancing for
        skewed machine sizes); results are order-independent.
    progress:
        Optional callable receiving one line per finished task.
    join:
        Work-stealing mode: claim tasks through per-task leases and
        append to a claimant-named journal shard instead of the shared
        ``results.jsonl`` (see :meth:`join`).
    claimant / lease_ttl / heartbeat_interval:
        Joined-mode identity and timing knobs; ignored otherwise.
    """

    def __init__(
        self,
        tasks: Sequence[BatchTask],
        run_dir: Union[str, Path],
        jobs: int = 1,
        task_timeout: Optional[float] = None,
        retries: int = 2,
        fail_fast: bool = False,
        shuffle_seed: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        force: bool = False,
        join: bool = False,
        claimant: Optional[str] = None,
        lease_ttl: float = DEFAULT_TTL,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        ids = [t.task_id for t in tasks]
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise ValueError(f"duplicate task ids: {sorted(dupes)}")
        self.tasks = list(tasks)
        self.run_dir = Path(run_dir)
        self.jobs = max(1, int(jobs))
        self.task_timeout = task_timeout
        self.retries = max(0, int(retries))
        self.fail_fast = fail_fast
        self.shuffle_seed = shuffle_seed
        self.force = force
        self.progress = progress or (lambda line: None)
        self.join_mode = bool(join)
        self.claimant = claimant or default_claimant()
        if lease_ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {lease_ttl}")
        self.lease_ttl = float(lease_ttl)
        # renew each held lease well inside its TTL: a claimant must
        # miss several heartbeats in a row before it looks dead
        self.heartbeat_interval = (max(0.05, self.lease_ttl / 3.0)
                                   if heartbeat_interval is None
                                   else float(heartbeat_interval))
        self._leases: Optional[LeaseDir] = None
        self._done: Set[str] = set()  # task ids with a journaled row
        self._ctx = get_context("spawn")
        self._idle: List[Worker] = []  # finished workers kept for reuse

    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, run_dir: Union[str, Path], *,
               jobs: Optional[int] = None,
               task_timeout: Optional[float] = None,
               retries: Optional[int] = None,
               fail_fast: Optional[bool] = None,
               progress: Optional[Callable[[str], None]] = None,
               force: bool = False,
               ) -> "BatchRunner":
        """Rebuild a runner from ``manifest.json`` of a previous run.

        The task set always comes from the manifest (that is what makes
        the union of journaled results well-defined); scheduling knobs
        default to the recorded ones but may be overridden.
        """
        manifest = read_manifest(run_dir)
        cfg, tasks = cls._manifest_tasks(run_dir, manifest)
        return cls(tasks, run_dir, progress=progress, force=force,
                   **cls._knobs(cfg, jobs=jobs, task_timeout=task_timeout,
                                retries=retries, fail_fast=fail_fast))

    @classmethod
    def join(cls, run_dir: Union[str, Path], *,
             tasks: Optional[Sequence[BatchTask]] = None,
             jobs: Optional[int] = None,
             task_timeout: Optional[float] = None,
             retries: Optional[int] = None,
             fail_fast: Optional[bool] = None,
             shuffle_seed: Optional[int] = None,
             claimant: Optional[str] = None,
             lease_ttl: Optional[float] = None,
             heartbeat_interval: Optional[float] = None,
             progress: Optional[Callable[[str], None]] = None,
             ) -> "BatchRunner":
        """Join (or start) a shared work-stealing run on *run_dir*.

        If the manifest already exists, its task set is authoritative —
        every claimant must agree on the task universe, and the
        manifest is what they agree on — and its recorded knobs,
        ``shuffle_seed`` included, are the defaults.  The first joiner
        may pass *tasks* to create the run; it publishes the manifest
        before returning so later joiners see a complete task list (the
        manifest itself is written atomically).
        """
        try:
            manifest: Optional[Dict] = read_manifest(run_dir)
        except FileNotFoundError:
            if tasks is None:
                raise
            manifest = None
        cfg: Dict = {}
        if manifest is not None:
            cfg, tasks = cls._manifest_tasks(run_dir, manifest)
        assert tasks is not None
        runner = cls(
            tasks, run_dir, progress=progress, join=True,
            claimant=claimant,
            lease_ttl=(lease_ttl if lease_ttl is not None
                       else cfg.get("lease_ttl") or DEFAULT_TTL),
            heartbeat_interval=heartbeat_interval,
            **cls._knobs(cfg, jobs=jobs, task_timeout=task_timeout,
                         retries=retries, fail_fast=fail_fast,
                         shuffle_seed=shuffle_seed))
        if manifest is None:
            Path(run_dir).mkdir(parents=True, exist_ok=True)
            write_manifest(run_dir, runner._manifest("running"))
        return runner

    @staticmethod
    def _knobs(cfg: Dict, **given) -> Dict:
        """Scheduling knobs: each given one, else the manifest's."""
        defaults = {"jobs": 1, "task_timeout": None, "retries": 2,
                    "fail_fast": False, "shuffle_seed": None}
        return {key: cfg.get(key, default) if given.get(key) is None
                else given[key] for key, default in defaults.items()}

    @staticmethod
    def _manifest_tasks(run_dir, manifest: Dict):
        """Decode the config + task list of a manifest, wrapping any
        structural damage (a half-written or hand-edited file) into a
        :class:`JournalError` that names the file — never a raw
        ``KeyError`` escaping to the CLI as a traceback."""
        path = Path(run_dir) / journal_mod.MANIFEST_NAME
        cfg = manifest.get("config", {})
        if not isinstance(cfg, dict):
            raise JournalError(
                f"manifest 'config' should be an object, got "
                f"{type(cfg).__name__}", path=str(path))
        try:
            tasks = [BatchTask.from_spec(s) for s in manifest["tasks"]]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise JournalError(
                f"manifest task list is missing or malformed ({exc!r}); "
                f"the file may be from an interrupted write — re-create "
                f"the run or restore the manifest", path=str(path)) from exc
        return cfg, tasks

    # ------------------------------------------------------------------
    def _manifest(self, status: str) -> Dict:
        return {
            "version": 1,
            "status": status,
            "pid": os.getpid(),
            "config": {
                "jobs": self.jobs,
                "task_timeout": self.task_timeout,
                "retries": self.retries,
                "fail_fast": self.fail_fast,
                "shuffle_seed": self.shuffle_seed,
                # joined runs record the TTL so every later joiner
                # agrees on when a silent claimant counts as dead
                "lease_ttl": self.lease_ttl if self.join_mode else None,
            },
            "tasks": [t.spec() for t in self.tasks],
        }

    def _serve_cached(self, task: BatchTask, journal: Journal,
                      lease: Optional[Lease] = None) -> bool:
        """Parent-side cache short-circuit: journal an already-cached
        encode result without dispatching it to a worker.

        A hit costs one disk read + JSON decode (~ms) against a pipe
        round trip to a worker — and ~0.15 s of interpreter start-up
        and pipeline compile when no idle worker is left to reuse.  Anything unexpected —
        uncacheable options, a miss, a decode failure — falls through
        to the normal worker path, so this can only ever skip work,
        never change a result.
        """
        if task.kind != "encode" or task.faults:
            return False
        task_t0 = time.monotonic()
        try:
            from repro import cache as cache_mod
            from repro.encoding.options import merge_options
            from repro.runner.worker import _load_fsm

            opts = merge_options(None, {"algorithm": task.algorithm,
                                        **task.options})
            if not opts.storable:
                return False
            cache = cache_mod.get_cache(opts.cache)
            if cache is None or cache.disk is None:
                return False
            fsm = _load_fsm(task.machine)
            payload = cache.get(cache_mod.fingerprint(fsm, opts))
            if payload is None:
                return False
            result = cache_mod.decode_result(fsm, payload)
        # nova-lint: disable=NV004 -- deliberate catch-all guard: a
        # cache probe failure can only skip the shortcut (a worker then
        # computes the task normally), never change a result
        except Exception:
            return False  # any surprise: let a worker handle the task
        if result.report is not None:
            result.report.cache_hit = True
        status = ("degraded" if result.report is not None
                  and result.report.degraded else "ok")
        elapsed = round(time.monotonic() - task_t0, 6)
        a = _Active(task, 0, None, task_t0, [attempt_record({
            "algorithm": task.algorithm, "status": status,
            "elapsed": elapsed})], lease=lease)
        self._journal_final(a, journal, status, record=result.to_record(),
                            cache_hit=True)
        return True

    def _dispatch(self, task: BatchTask, attempt: int, task_t0: float,
                  attempts: List[Dict], lease: Optional[Lease] = None,
                  epoch: Optional[int] = None) -> _Active:
        """Send one attempt to an idle worker, or to a fresh one."""
        spec = task.spec()
        ladder = task.ladder()
        spec["algorithm"] = ladder[min(attempt, len(ladder) - 1)]
        run = Attempt(take_idle(self._idle) or Worker(self._ctx), spec,
                      self.task_timeout)
        return _Active(task, attempt, run, task_t0, attempts,
                       lease=lease, epoch=epoch)

    def _close_workers(self, active: List[_Active]) -> None:
        """Kill every worker this runner started, in flight or idle (an
        idle worker holds nothing worth a graceful exit)."""
        for a in active:
            if a.run is not None:
                a.run.worker.retire(kill=True)
                a.run = None
        idle, self._idle = self._idle, []
        for worker in idle:
            worker.retire(kill=True)

    # ------------------------------------------------------------------
    def run(self) -> BatchReport:
        """Execute every task not yet journaled; return the aggregate
        report.

        One claim loop serves both modes; what differs is fixed before
        it starts.  A serial run journals into ``results.jsonl``, owns
        the manifest and takes no leases, so every claim is granted and
        done-ness is what it journaled itself.  A joined claimant
        journals into its own shard and claims through the lease table;
        every round it re-derives done-ness from the merged shards,
        which is how it learns about other claimants' completions,
        deaths and steals — by re-reading durable state, never by
        messages.  Either way tasks start in manifest order (shuffled
        by ``shuffle_seed``), one per freed slot.
        """
        t0 = time.monotonic()
        self.run_dir.mkdir(parents=True, exist_ok=True)
        leases: Optional[LeaseDir] = None
        if self.join_mode:
            leases = LeaseDir(self.run_dir, self.claimant, ttl=self.lease_ttl)
            path = self.run_dir / shard_name(self.claimant)
        else:
            self._check_not_busy()
            path = self.run_dir / journal_mod.RESULTS_NAME
        prior = repair(path)
        if prior.truncated_tail is not None:
            self.progress(f"journal: dropped truncated tail "
                          f"({len(prior.truncated_tail)} bytes) from "
                          f"{path.name}; its task will re-run")
        # done-ness counts records in *any* shard, so a serial resume of
        # a previously joined run dir never redoes stolen work
        self._done = set(merge_results(self.run_dir).task_ids)
        if leases is None:
            write_manifest(self.run_dir, self._manifest("running"))
        order = list(self.tasks)
        if self.shuffle_seed is not None:
            random.Random(self.shuffle_seed).shuffle(order)
        all_ids = {t.task_id for t in order}
        self._leases = leases
        active: List[_Active] = []
        last_beat = time.monotonic()
        try:
            with Journal(path) as journal:
                while True:
                    if leases is not None:
                        self._done = set(merge_results(self.run_dir).task_ids)
                    if not active and self._done >= all_ids:
                        break
                    in_flight = {a.task.task_id for a in active}
                    claimed = False
                    for task in order:
                        if len(active) >= self.jobs:
                            break
                        if task.task_id in self._done \
                                or task.task_id in in_flight:
                            continue
                        lease = None
                        if leases is not None:
                            lease = leases.acquire(task.task_id)
                            if lease is None:
                                continue
                            if lease.epoch:
                                self.progress(
                                    f"{task.task_id}: stolen at epoch "
                                    f"{lease.epoch} (previous claimant "
                                    f"presumed dead)")
                        claimed = True
                        if self._serve_cached(task, journal, lease=lease):
                            continue
                        active.append(self._dispatch(
                            task, 0, time.monotonic(), [], lease=lease))
                    if not active:
                        if not claimed:
                            # everything unfinished is held live by other
                            # claimants: wait for their journals to grow
                            # or their leases to expire
                            time.sleep(min(0.2, self.heartbeat_interval))
                        continue
                    self._poll(active, journal)
                    now = time.monotonic()
                    if leases is not None \
                            and now - last_beat >= self.heartbeat_interval:
                        last_beat = now
                        for a in active:
                            if a.lease is None:
                                continue
                            renewed = leases.heartbeat(a.lease)
                            if renewed is None:
                                # stolen out from under us (we looked
                                # dead).  Finish anyway: our record keeps
                                # the original epoch and loses the merge
                                # deterministically.
                                self.progress(
                                    f"{a.task.task_id}: lease lost at epoch "
                                    f"{a.epoch} — finishing as a zombie; "
                                    f"the merge will keep the stealer's "
                                    f"result")
                                a.lease = None
                            else:
                                a.lease = renewed
                    self._retry_or_fail(active)
        except _FailFast as stop:
            self._close_workers(active)
            if leases is None:
                write_manifest(self.run_dir, self._manifest("failed"))
                self.progress(f"fail-fast: stopping after {stop}")
            else:
                for a in active:
                    if a.lease is not None:
                        leases.release(a.lease)
                # no manifest rewrite: other claimants keep running —
                # fail fast is a local decision in a cooperative run
                self.progress(f"fail-fast: this claimant stops after "
                              f"{stop}")
            return self._report(t0, interrupted=True)
        finally:
            self._close_workers(active)
            self._leases = None
        # the final status covers every shard's rows; in a joined run
        # whichever claimant observes completion publishes it (racing
        # writers produce the same content modulo pid)
        report = self._report(t0)
        write_manifest(self.run_dir, self._manifest(
            "failed" if report.failed else "complete"))
        if leases is not None:
            self.progress(
                f"claimant {self.claimant}: {leases.claims} claims, "
                f"{leases.steals} steals, {leases.lost} leases lost")
        return report

    def _check_not_busy(self) -> None:
        """Refuse to journal into a run dir another live parent owns."""
        if self.force:
            return
        try:
            manifest = read_manifest(self.run_dir)
        except FileNotFoundError:
            return
        pid = manifest.get("pid")
        if (manifest.get("status") == "running" and pid != os.getpid()
                and _pid_alive(pid)):
            raise RunDirBusy(
                f"{self.run_dir}: manifest says a batch parent "
                f"(pid {pid}) is still running here; two writers would "
                f"duplicate journal rows. Wait for it, kill it, or pass "
                f"force=True (CLI: --force) if pid {pid} is not a nova "
                f"batch.")

    def _report(self, t0: float, interrupted: bool = False) -> BatchReport:
        merged = merge_results(self.run_dir)
        report = aggregate(merged.records, run_dir=self.run_dir,
                           wall_seconds=time.monotonic() - t0,
                           planned=len(self.tasks), interrupted=interrupted,
                           shards=merged.shards,
                           stale_rejected=len(merged.rejected),
                           duplicates=merged.duplicates)
        return report

    # ------------------------------------------------------------------
    def _poll(self, active: List[_Active], journal: Journal) -> None:
        """Wait for attempts to end and settle each one that did.

        A settled task's ``run`` is None; its worker went back to the
        idle list or was retired.
        """
        owner = {a.run: a for a in active}
        for run, outcome in watch(list(owner), 0.5):
            a = owner[run]
            if run.worker.reusable:
                self._idle.append(run.worker)
            else:
                run.worker.retire()
            a.run = None
            a.attempts.append(attempt_record(outcome))
            status = outcome["status"]
            if status in REUSABLE_STATUSES:
                self._journal_final(a, journal, status,
                                    record=outcome.get("record"),
                                    perf=outcome.get("perf") or {},
                                    cache_hit=outcome.get("cache_hit", False))
            elif a.attempt >= self.retries:
                self._journal_final(a, journal, "failed")

    def _retry_or_fail(self, active: List[_Active]) -> None:
        """Drop finished attempts from *active* (in place), dispatching
        the next ladder rung for each failed one with retries left.

        Under ``fail_fast`` a task that failed for good raises
        :class:`_FailFast`.
        """
        finished = [a for a in active if a.run is None]
        active[:] = [a for a in active if a.run is not None]
        for a in finished:
            if a.attempts[-1]["status"] in REUSABLE_STATUSES:
                continue
            if a.attempt < self.retries:
                active.append(self._dispatch(
                    a.task, a.attempt + 1, a.task_t0, a.attempts,
                    lease=a.lease, epoch=a.epoch))
            elif self.fail_fast:
                raise _FailFast(a.task.task_id)

    def _journal_final(self, a: _Active, journal: Journal, status: str,
                       record: Optional[Dict] = None,
                       perf: Optional[Dict] = None,
                       cache_hit: bool = False) -> None:
        """Write the task's single, durable journal line."""
        last = a.attempts[-1]
        entry = {
            "task": a.task.task_id,
            "machine": a.task.machine,
            "kind": a.task.kind,
            "requested_algorithm": a.task.algorithm,
            "algorithm": last["algorithm"],
            "status": status,
            "attempts": a.attempts,
            "retries": len(a.attempts) - 1,
            "record": record,
            "perf": perf or {},
            "cache_hit": cache_hit,
            "error": last["error"],
            "elapsed": round(time.monotonic() - a.task_t0, 6),
        }
        if self.join_mode:
            # the fencing stamp: merge precedence is (epoch, claimant),
            # recorded even if the lease was lost mid-run (that is the
            # whole point — a zombie's row must carry its stale epoch)
            entry["claimant"] = self.claimant
            entry["epoch"] = a.epoch if a.epoch is not None else 0
            entry["stolen"] = bool(entry["epoch"])
        journal.append(entry)
        self._done.add(a.task.task_id)
        if a.lease is not None and self._leases is not None:
            self._leases.release(a.lease)
            a.lease = None
        detail = " (cached)" if cache_hit else ""
        if status == "failed":
            kinds = [at["killed"] or at["status"] for at in a.attempts]
            detail = f" ({' -> '.join(kinds)})"
        elif len(a.attempts) > 1:
            detail = f" (after {len(a.attempts) - 1} retries)"
        self.progress(f"{a.task.task_id}: {status}{detail}")


class _FailFast(Exception):
    """Internal control flow: first final failure under --fail-fast."""


# ----------------------------------------------------------------------
# task-list builders
# ----------------------------------------------------------------------
def tasks_for_benchmarks(subset: str, algorithm: str = "ihybrid",
                         options: Optional[Dict] = None,
                         timeout: Optional[float] = None) -> List[BatchTask]:
    """Encode tasks for a builtin benchmark subset.

    Per-machine effort mirrors the serial table harness
    (:func:`repro.eval.tables.run`): heavyweight machines get
    ``effort="low"`` unless the caller pinned an effort explicitly.
    """
    from repro.fsm.benchmarks import benchmark_names, is_low_effort

    tasks = []
    for name in benchmark_names(subset):
        opts = dict(options or {})
        opts.setdefault("effort", "low" if is_low_effort(name) else "full")
        if timeout is not None:
            # cooperative in-worker deadline, under the hard kill
            opts.setdefault("timeout", timeout)
        tasks.append(BatchTask(machine=name, algorithm=algorithm,
                               options=opts))
    return tasks


def tasks_for_kiss_dir(path: Union[str, Path], algorithm: str = "ihybrid",
                       options: Optional[Dict] = None,
                       timeout: Optional[float] = None) -> List[BatchTask]:
    """Encode tasks for every ``*.kiss``/``*.kiss2`` file under *path*."""
    root = Path(path)
    files = sorted(p for ext in ("*.kiss", "*.kiss2")
                   for p in root.rglob(ext))
    if not files:
        raise FileNotFoundError(f"no .kiss/.kiss2 files under {root}")
    tasks = []
    for p in files:
        opts = dict(options or {})
        if timeout is not None:
            opts.setdefault("timeout", timeout)
        tasks.append(BatchTask(machine=str(p), algorithm=algorithm,
                               options=opts))
    return tasks
