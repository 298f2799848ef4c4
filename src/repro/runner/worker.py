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
On a 2-vCPU host that first attempt took 0.09-0.14 s inside a worker
that compiled them from source (under ``PYTHONDONTWRITEBYTECODE`` no
``.pyc`` ever saves that), 0.03-0.04 s in one handed their code, and
0.004 s warm.  So a parent keeps the code its workers compiled and ships
it to every worker it starts later (:data:`_CODE`, :class:`_CodeFinder`):
``repro.*`` modules only, each served only while
``importlib.util.source_hash`` of its source on disk still matches (the
checked hash-pyc rule), only to workers running the parent's
executable (what spawn starts), and nothing is written to disk.  A
worker reports what it compiled as ``modules_compiled``; after a
parent's first workers that reads 0.  So only a worker started after an
earlier worker of the same process has reported gains: a replacement
(after a retire, a timeout kill or a crash), a service pool worker
started when concurrency grows, or any worker of a later run in a
process that runs several (a library caller).  The first workers of a
process still compile, and in a healthy one-shot ``nova batch``,
``nova table`` or ``nova bench run`` those are all of them.  What spawn
imports before :func:`child_main` — this module with its imports, and
the parent's main module again as ``__mp_main__`` — is compiled in
every worker and never shipped, which is why :mod:`repro.cli` imports
no pipeline module at its top level.  DESIGN §6.6 has the measured
shares.

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

from importlib.machinery import PathFinder, SourceFileLoader
from importlib.util import source_hash
import marshal
from multiprocessing.connection import wait as conn_wait
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import perf
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

#: Code of the ``repro`` modules this process's workers compiled:
#: source path -> (``source_hash`` of the source, marshalled code).
#: Each worker started later gets a copy in its ``Process`` args.
_CODE: Dict[str, Tuple[bytes, bytes]] = {}

#: Outcome key under which a worker sends back the code it compiled;
#: :meth:`Worker.recv` pops it into :data:`_CODE`.
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


class _CodeLoader(SourceFileLoader):
    """A source loader that serves shipped code while its source hash
    matches, and otherwise loads as usual and remembers the result."""

    def __init__(self, fullname: str, path: str,
                 finder: "_CodeFinder") -> None:
        super().__init__(fullname, path)
        self.finder = finder
        self._compiled: Optional[bytes] = None  # source_to_code's input

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        source = self.get_data(path)
        entry = self.finder.shipped.get(path)
        if entry is not None and entry[0] == source_hash(source):
            return marshal.loads(entry[1])
        self._compiled = None
        code = super().get_code(fullname)  # a valid .pyc, else source
        # the learned hash is that of the bytes the code came from: the
        # ones compiled, or the source a .pyc was valid for if it did
        # not change meanwhile
        data = self._compiled
        if data is None and self.get_data(path) == source:
            data = source
        if data is not None:
            self.finder.learned[path] = (source_hash(data),
                                         marshal.dumps(code))
        return code

    def source_to_code(  # type: ignore[override, misc]
            self, data, path="<string>", *, _optimize=-1):
        if perf.STATS is not None:
            perf.STATS.modules_compiled += 1
        self._compiled = data
        return super().source_to_code(data, path, _optimize=_optimize)


class _CodeFinder:
    """Meta-path finder for ``repro.*`` in a worker: the normal
    :class:`PathFinder` locates the module, :class:`_CodeLoader` loads
    it.  Every other import, and any ``repro`` module that is not a
    source file, is left to the normal path."""

    def __init__(self, shipped: Dict[str, Tuple[bytes, bytes]]) -> None:
        self.shipped = shipped
        self.learned: Dict[str, Tuple[bytes, bytes]] = {}

    def find_spec(self, fullname, path=None, target=None):
        if fullname.partition(".")[0] != "repro":
            return None
        spec = PathFinder.find_spec(fullname, path, target)
        if spec is None or type(spec.loader) is not SourceFileLoader:
            return None
        spec.loader = _CodeLoader(fullname, spec.origin, self)
        return spec


def child_main(conn, code: Dict[str, Tuple[bytes, bytes]]) -> None:
    """Worker-process entry: run specs from *conn* until retired.

    *code* is the parent's :data:`_CODE` (spawn runs the parent's
    executable, so its marshal format is this interpreter's); code the
    worker compiles beyond it rides back on its next outcome.  Exits
    when the parent closes its end (EOF) or after an attempt that
    :func:`reusable` rejects.  Must stay exception-proof: any error
    that escapes ``execute`` is itself serialized, and a send failure
    (parent already gone) exits quietly — an orphan must never corrupt
    anything.
    """
    finder = _CodeFinder(code)
    sys.meta_path.insert(0, finder)
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
            if finder.learned:
                outcome[_CODE_KEY], finder.learned = finder.learned, {}
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
        self.proc = ctx.Process(target=child_main,
                                args=(child_end, dict(_CODE)),
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
        :attr:`exitcode` is set).  Code the worker compiled goes into
        :data:`_CODE` and off the outcome."""
        try:
            outcome = self.conn.recv()
        except (EOFError, OSError):
            self.retire()
            return None
        _CODE.update(outcome.pop(_CODE_KEY, None) or {})
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
