"""Shared plumbing: locating the program, isolating its state, seeded
inputs, summary statistics and the result checks."""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import random
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: machine shapes for generated inputs (repro.fsm.generator arguments);
#: small controllers whose encode takes tens of milliseconds
SHAPES = {
    "binary": dict(num_inputs=3, num_outputs=3, num_states=8,
                   num_products=32),
    "symbolic": dict(num_inputs=0, num_outputs=3, num_states=8,
                     num_products=32, symbolic_values=4),
}


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def prepare(work: Path) -> None:
    """Make ``repro`` importable and confine its state to *work*.

    The result cache is switched off through a ``$NOVA_CONFIG`` file
    (workloads that use the cache ask for it per request), so no run
    reads results computed by an earlier one and nothing is written
    outside the checkout.  Child processes inherit the same settings.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    work.mkdir(parents=True, exist_ok=True)
    config = work / "nova-config.json"
    config.write_text(json.dumps({"cache": "off",
                                  "cache_dir": str(work / "cache")}))
    for var in [v for v in os.environ if v.startswith("NOVA_")]:
        del os.environ[var]
    os.environ["NOVA_CONFIG"] = str(config)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


#: prctl option that makes orphaned descendants children of the caller
PR_SET_CHILD_SUBREAPER = 36

#: seconds to wait for children at exit before killing the rest
REAP_GRACE_S = 30.0


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent exits.

    The program spawns helpers this benchmark does not start itself:
    ``multiprocessing``'s resource tracker (one per process that spawns
    workers) outlives the ``nova serve`` or ``cold_start.py`` process
    that started it by a moment.  Adopting such orphans lets
    :func:`reap_children` wait for them too.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("perfbench: cannot adopt orphaned descendants "
              f"(errno {ctypes.get_errno()})", file=sys.stderr)


def _child_pids() -> List[int]:
    """Processes whose parent is this one."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def reap_children() -> None:
    """Stop and wait for every child, adopted orphans included.

    This process's own resource tracker is stopped first (it would
    otherwise exit only after this process does).  Children still
    running after :data:`REAP_GRACE_S` are killed.  When this returns
    no descendant of this process is left, running or unreaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.02)


def machines(seed: int, prefix: str, shapes) -> Iterator:
    """Endless stream of seeded synthetic FSMs drawn from *shapes*."""
    from repro.fsm.generator import generate_fsm

    rng = random.Random(seed)
    i = 0
    while True:
        shape = SHAPES[rng.choice(shapes)]
        yield generate_fsm(f"{prefix}{i}", seed=rng.getrandbits(32), **shape)
        i += 1


def summary(latencies: List[float], busy: float) -> Dict[str, float]:
    """Median and 90th-percentile latency (ms) plus ops per second."""
    ms = sorted(x * 1000.0 for x in latencies)
    return {
        "latency_p50_ms": statistics.median(ms) if ms else 0.0,
        # quantiles() needs two points; one op is its own 90th percentile
        "latency_p90_ms": (statistics.quantiles(ms, n=10,
                                                method="inclusive")[8]
                           if len(ms) > 1 else (ms or [0.0])[-1]),
        "throughput_per_s": len(ms) / busy if busy else 0.0,
    }


def signature(record: Dict) -> tuple:
    """The result fields two equal encodes must agree on."""
    def enc(e: Optional[Dict]):
        return None if e is None else (e["nbits"], tuple(e["codes"]))
    return (enc(record["state_encoding"]), enc(record["symbol_encoding"]),
            record["cubes"], record["area"])


def record_ok(fsm, record: Dict) -> bool:
    """Structural checks on one encode result record.

    The state codes are distinct and fit their width, the width is at
    least the minimum code length, the reported area is the paper's PLA
    area formula applied to the reported cube count, and the run was
    verified and not degraded.
    """
    se = record["state_encoding"]
    codes, nbits = se["codes"], se["nbits"]
    if len(codes) != fsm.num_states or len(set(codes)) != len(codes):
        return False
    if (1 << nbits) < fsm.num_states or any(c >> nbits for c in codes):
        return False
    ibits = 0
    if fsm.symbolic_input_values:
        sym = record["symbol_encoding"]
        if sym is None or len(set(sym["codes"])) != len(sym["codes"]):
            return False
        ibits = sym["nbits"]
    inputs = fsm.num_inputs + ibits
    area = (2 * (inputs + nbits) + nbits + fsm.num_outputs) * record["cubes"]
    report = record["report"] or {}
    return (record["cubes"] > 0 and record["area"] == area
            and not report.get("degraded") and report.get("verified") is True)


def reference(fsm, algorithm: str) -> Dict:
    """The in-process library answer for *fsm* (cache off)."""
    from repro.api import EncodeOptions, encode_fsm

    return encode_fsm(fsm, options=EncodeOptions(
        algorithm=algorithm, cache="off")).to_record()
