"""Worker processes shared by the batch runner and the encode service.

A worker is a spawned interpreter whose entry point is
:func:`child_main`: a loop that receives one JSON-safe task spec at a
time, runs it through :func:`execute`, and sends back one JSON-safe
outcome dict:

``{"status": "ok" | "degraded" | "error", "record": ..., "perf": ...,
"error": ..., "elapsed": ...}``

The worker rebuilds the task from its spec, arms any injected faults
(the parent ships :meth:`repro.testing.faults.Fault.to_dict` specs
inside the task, which is how the hang/crash robustness tests reach
across the process boundary), and runs the pipeline under a perf
collector.  Everything crossing the pipe is primitives — no FSM, no
covers — so transport can never hit a pickling edge case.

Workers are reused, which saves interpreter start-up on every attempt
after a worker's first: ~0.05 s for the interpreter and ``site``, and
~0.03 s to import this module (the packages on the way re-export
lazily, :mod:`repro._lazy`).  The first encode of a worker also loads
the pipeline, ~40 more ``repro`` modules for an ihybrid encode of lion.
Under ``PYTHONDONTWRITEBYTECODE`` no ``.pyc`` ever saves compiling
them, so every process keeps the code of the ``repro`` modules it
loaded, its own imports included, and :class:`Worker` passes that map
to each worker it starts (:mod:`repro._codemap`).  The spawn target,
:func:`repro._codemap.spawn_main`, puts the map in place before it
imports this module, so a worker compiles only what it loads before
the map arrives (``repro`` with its three stdlib-only helpers, and the
parent's main module re-imported as ``__mp_main__``) and what neither
its parent nor an earlier worker loaded; the code it compiled rides
back on its next outcome.  A worker reports the modules it compiled as
``modules_compiled``: on its first outcome all of them since its start
but the four of ``import repro``, a fixed cost of every start.  A
pipeline module shows up there only if the parent never imported it,
and :mod:`repro.cli` imports none at its top level, since its
``__mp_main__`` copy compiles in every worker.  DESIGN §6.6 has the
measured shares.

A worker *retires* — exits, and is never handed another spec — after
any attempt whose spec armed faults or whose outcome was not
``ok``/``degraded`` (:func:`reusable`); both ends apply that rule, so
an interpreter that may be poisoned never serves another task.  If the
process dies without sending (a hard hang killed by the parent, an
``os._exit``, a real segfault or OOM kill), the parent observes EOF
and classifies the attempt itself; a killed or crashed worker is
simply gone.  Workers never write the journal — the parent does.

:class:`Worker` is the parent-side handle: start, send a spec, receive,
kill, retire.  :class:`Attempt` and :func:`watch` are the one attempt
watcher the batch runner and the encode service's pool share: an
attempt ends with the worker's own report, ``crashed`` on EOF, or
``killed``/``timeout`` after a SIGKILL at its hard deadline, and
:func:`attempt_record` is the per-attempt row both the journal and the
``/encode`` response carry.
"""

from __future__ import annotations

from multiprocessing.connection import wait as conn_wait
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import _codemap, perf
from repro.errors import ReproError, error_to_dict
from repro.testing import faults

#: Outcome statuses after which a worker may run another attempt.
REUSABLE_STATUSES = ("ok", "degraded")

#: Seconds a retired worker gets to exit on its own before a SIGKILL.
RETIRE_GRACE = 5.0

#: ``killed`` marker of an attempt SIGKILLed at its hard deadline.
KILLED_TIMEOUT = "timeout"

#: The keys of one attempt record (journal rows and ``/encode``
#: responses alike).
ATTEMPT_KEYS = ("algorithm", "status", "killed", "exitcode", "error",
                "elapsed", "pid")

#: Outcome key under which a worker sends back the code it loaded
#: beyond its parent's map; :meth:`Worker.recv` pops it into that map.
_CODE_KEY = "compiled_code"


def reusable(spec: Dict, outcome: Dict) -> bool:
    """Whether the worker that ran *spec* may run another attempt.

    Armed faults leave state behind in the worker's fault plan, and an
    attempt that errored may have left anything half-built; both retire
    the worker rather than risk carrying that into the next task.
    """
    return (not spec.get("faults")
            and outcome.get("status") in REUSABLE_STATUSES)


def _load_fsm(machine: str):
    """A benchmark machine by name, or a KISS2 file by path."""
    from repro.fsm.benchmarks import benchmark, benchmark_names
    from repro.fsm.kiss import parse_kiss
    from pathlib import Path

    if machine in benchmark_names("all"):
        return benchmark(machine)
    path = Path(machine)
    return parse_kiss(path.read_text(), name=path.stem)


def execute(spec: Dict) -> Dict:
    """Run one task attempt in this process; return the outcome dict."""
    t0 = time.perf_counter()
    fault_specs = spec.get("faults") or []
    if fault_specs:
        faults.arm(*[faults.Fault.from_dict(d) for d in fault_specs])
    outcome: Dict = {"task": spec["task"], "algorithm": spec["algorithm"]}
    with perf.collect() as stats:
        try:
            if spec.get("kind") == "table":
                outcome.update(_run_table(spec))
            else:
                outcome.update(_run_encode(spec))
        except ReproError as exc:
            outcome.update(status="error", error=error_to_dict(exc))
        except Exception as exc:  # non-taxonomy bug: still transportable
            outcome.update(status="error", error=error_to_dict(exc))
    outcome["perf"] = {k: v for k, v in stats.as_dict().items() if v}
    outcome["elapsed"] = round(time.perf_counter() - t0, 6)
    return outcome


def _run_encode(spec: Dict) -> Dict:
    from repro.encoding.nova import encode_fsm

    if spec.get("kiss"):
        # inline KISS2 text (the encode service ships request bodies
        # this way — there is no file to point at)
        from repro.fsm.kiss import parse_kiss

        fsm = parse_kiss(spec["kiss"], name=spec["machine"])
    else:
        fsm = _load_fsm(spec["machine"])
    result = encode_fsm(fsm, spec["algorithm"], **(spec.get("options") or {}))
    report = result.report
    status = "degraded" if (report is not None and report.degraded) else "ok"
    out = {"status": status, "record": result.to_record(),
           "cache_hit": bool(report is not None and report.cache_hit)}
    if spec.get("want_payload"):
        # the encode service warms its own in-process cache tier from
        # this (the worker's memory LRU is not the service's), under
        # the encode path's own fill rule; it rebuilds the payload from
        # the record above and this PLA, so the record travels once
        from repro import cache as cache_mod

        if cache_mod.cacheable(result):
            out["pla"] = cache_mod.encode_pla(result.pla)
    return out


def _run_table(spec: Dict) -> Dict:
    from repro.eval import tables

    row_fn = getattr(tables, f"table{spec['table']}_row", None)
    if row_fn is None:
        raise ValueError(f"no table {spec['table']!r}")
    row = row_fn(spec["machine"])
    return {"status": "ok", "record": {"row": row}}


def child_main(conn) -> None:
    """Worker-process loop: run specs from *conn* until retired.

    Spawned through :func:`repro._codemap.spawn_main`, which put the
    parent's map of compiled code in place first.  Each outcome carries
    what the worker loaded beyond that map (:data:`_CODE_KEY`) and, as
    its ``modules_compiled``, how many modules it compiled since the
    previous outcome, or since its start on the first.  Exits when the
    parent closes its end (EOF) or after an attempt that
    :func:`reusable` rejects.  Must stay exception-proof: any error
    that escapes ``execute`` is itself serialized, and a send failure
    (parent already gone) exits quietly — an orphan must never corrupt
    anything.
    """
    codemap = _codemap.MAP
    reported = 0
    try:
        while True:
            try:
                spec = conn.recv()
            except EOFError:
                return  # retired by the parent, or the parent is gone
            try:
                outcome = execute(spec)
            except BaseException as exc:  # pragma: no cover - belt & braces
                outcome = {"task": spec.get("task"),
                           "algorithm": spec.get("algorithm"),
                           "status": "error", "error": error_to_dict(exc),
                           "perf": {}, "elapsed": 0.0}
            learned = codemap.take_learned()
            if learned:
                outcome[_CODE_KEY] = learned
            compiled, reported = codemap.compiled - reported, codemap.compiled
            if compiled:
                outcome["perf"]["modules_compiled"] = compiled
            conn.send(outcome)
            if not reusable(spec, outcome):
                return
    except (BrokenPipeError, EOFError, OSError):  # pragma: no cover
        pass
    finally:
        conn.close()


class Worker:
    """Parent-side handle on one worker process.

    The owner (one batch runner, or one pool thread at a time) sends a
    spec, waits on :attr:`conn`, and calls :meth:`recv`; afterwards
    :attr:`reusable` says whether the worker may take the next spec or
    must be retired.  :meth:`kill` is the one method safe to call from
    a thread that does not own the worker (the pool's shutdown).

    The process starts on a short-lived thread: ``start()`` returns
    only once the child has read its args, shipped code included, and
    the caller need not wait for that to start the next worker or to
    send a spec.  Everything that touches the process joins that
    thread first, :attr:`pid` included, so a caller reads it before
    taking a lock that other threads wait on.
    """

    def __init__(self, ctx) -> None:
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_codemap.spawn_main,
                                args=(child_end, _codemap.MAP.shipped()),
                                daemon=True)
        self._start_error: Optional[Exception] = None
        self._starter = threading.Thread(target=self._start,
                                         args=(child_end,), daemon=True)
        self._starter.start()
        self._spec: Dict = {}
        self.reusable = False

    def _start(self, child_end) -> None:
        try:
            self.proc.start()
        except Exception as exc:  # re-raised by _started()
            self._start_error = exc
        finally:
            child_end.close()  # keep only the parent's end: EOF is reliable

    def _started(self) -> bool:
        """Wait for the start; whether the process was started.  A
        failed start raises its error to the first caller, after which
        the worker reads as a process that is gone."""
        self._starter.join()
        error, self._start_error = self._start_error, None
        if error is not None:
            raise error
        return self.proc.ident is not None

    @property
    def pid(self) -> Optional[int]:
        self._started()
        return self.proc.pid

    @property
    def exitcode(self) -> Optional[int]:
        self._started()
        return self.proc.exitcode

    def alive(self) -> bool:
        return self._started() and self.proc.is_alive()

    def send(self, spec: Dict) -> None:
        """Start one attempt.  A worker that died while idle cannot
        take it; its next :meth:`recv` then reads EOF — a crash."""
        self._spec = spec
        self.reusable = False
        try:
            self.conn.send(spec)
        except OSError:
            pass

    def recv(self) -> Optional[Dict]:
        """The attempt's outcome once :attr:`conn` is ready, or None if
        the worker died without one (it is then retired and reaped, so
        :attr:`exitcode` is set).  Code the worker loaded goes into
        this process's map (:mod:`repro._codemap`) and off the
        outcome."""
        try:
            outcome = self.conn.recv()
        except (EOFError, OSError):
            self.retire()
            return None
        _codemap.MAP.update(outcome.pop(_CODE_KEY, None) or {})
        self.reusable = reusable(self._spec, outcome)
        return outcome

    def kill(self) -> None:
        """SIGKILL the process and reap it.  The owner still calls
        :meth:`retire` to release the pipe."""
        if self._started():
            self.proc.kill()
            self.proc.join()

    def retire(self, kill: bool = False) -> None:
        """Close the pipe and reap the process; it is never reused.

        A live worker reads EOF and exits on its own; ``kill=True``
        (a missed deadline) SIGKILLs it first.
        """
        self.reusable = False
        if kill:
            self.kill()
        self.conn.close()
        if not self._started():
            return
        self.proc.join(RETIRE_GRACE)
        if self.proc.is_alive():  # pragma: no cover - wedged on exit
            self.kill()


def take_idle(idle: List[Worker]) -> Optional[Worker]:
    """Pop the most recently idled live worker from *idle*, or None.

    A worker that died while idle (an OOM kill, a stray signal) is
    retired rather than handed an attempt it would report as a crash.
    """
    while idle:
        worker = idle.pop()
        if worker.alive():
            return worker
        worker.retire()
    return None


def attempt_record(outcome: Dict) -> Dict:
    """The attempt row for an outcome: :data:`ATTEMPT_KEYS`, None where
    the outcome has no value."""
    return {key: outcome.get(key) for key in ATTEMPT_KEYS}


class Attempt:
    """One spec running on a worker under an optional hard deadline.

    Constructing it sends the spec.  The owner waits on it through
    :func:`watch` and afterwards keeps :attr:`worker` idle if it is
    :attr:`Worker.reusable`, else retires it.
    """

    __slots__ = ("worker", "spec", "started", "deadline")

    def __init__(self, worker: Worker, spec: Dict,
                 timeout: Optional[float]) -> None:
        self.worker = worker
        self.spec = spec
        self.started = time.monotonic()
        self.deadline = None if timeout is None else self.started + timeout
        worker.send(spec)

    def _outcome(self, status: str, **fields) -> Dict:
        """A parent-side outcome for a worker that sent no report."""
        out = {"algorithm": self.spec.get("algorithm"), "status": status,
               "exitcode": self.worker.exitcode,
               "elapsed": round(time.monotonic() - self.started, 6),
               "pid": self.worker.pid}
        out.update(fields)
        return out

    def kill(self, reason: str) -> Dict:
        """SIGKILL the worker; the attempt ends ``killed`` for *reason*."""
        self.worker.retire(kill=True)
        return self._outcome("killed", killed=reason)

    def _settle(self, ready: bool, now: float) -> Optional[Dict]:
        if ready:
            report = self.worker.recv()
            if report is None:
                return self._outcome("crashed")
            report["pid"] = self.worker.pid
            return report
        if self.deadline is not None and now > self.deadline:
            return self.kill(KILLED_TIMEOUT)
        return None


def watch(attempts: Sequence[Attempt],
          timeout: float) -> List[Tuple[Attempt, Dict]]:
    """Wait up to *timeout* seconds, less if a hard deadline comes
    first; return each attempt that ended with its outcome."""
    now = time.monotonic()
    for a in attempts:
        if a.deadline is not None:
            timeout = min(timeout, max(0.0, a.deadline - now))
    ready = set(conn_wait([a.worker.conn for a in attempts], timeout))
    now = time.monotonic()
    ended = []
    for a in attempts:
        outcome = a._settle(a.worker.conn in ready, now)
        if outcome is not None:
            ended.append((a, outcome))
    return ended
