"""The benchmark observatory: declarative sweeps, robust timing, and a
gated performance trajectory.

Layers, bottom up:

* :mod:`repro.bench.timing` — variance-controlled measurement (warmup,
  repeated samples, MAD outlier rejection, mean/std/min/median).
* :mod:`repro.bench.record` — the schema-versioned
  :class:`~repro.bench.record.BenchRecord` shared by every producer and
  consumer of timing data, plus environment capture.
* :mod:`repro.bench.spec` — :class:`~repro.bench.spec.SweepSpec`, the
  declarative suite definition (JSON/TOML loadable).
* :mod:`repro.bench.discover` — the machines and the row timeout of
  ``nova table``.
* :mod:`repro.bench.sweep` — compiles a spec onto the batch runner and
  folds the journal back into one record.
* :mod:`repro.bench.trajectory` — the append-only
  ``BENCH_TRAJECTORY.json`` store, the latest-vs-baseline comparator,
  and the CI regression gate.

The ``nova bench`` CLI (``run`` / ``compare`` / ``gate``)
is the front end; ``benchmarks/specs/`` holds the shipped suite
definitions.
"""

from __future__ import annotations

from repro.bench.record import SCHEMA_VERSION, BenchRecord, \
    capture_environment
from repro.bench.spec import SweepSpec, load_spec
from repro.bench.sweep import compile_tasks, run_sweep
from repro.bench.timing import SampleStats, best_of, mad_reject, measure, \
    summarize
from repro.bench.trajectory import (
    DEFAULT_GATE_SUITES,
    DEFAULT_PATH,
    TRAJECTORY_SCHEMA,
    GateResult,
    SuiteComparison,
    append_record,
    compare_suite,
    gate,
    load_trajectory,
    save_trajectory,
)

__all__ = [
    "BenchRecord",
    "DEFAULT_GATE_SUITES",
    "DEFAULT_PATH",
    "GateResult",
    "SCHEMA_VERSION",
    "SampleStats",
    "SuiteComparison",
    "SweepSpec",
    "TRAJECTORY_SCHEMA",
    "append_record",
    "best_of",
    "capture_environment",
    "compare_suite",
    "compile_tasks",
    "gate",
    "load_spec",
    "load_trajectory",
    "mad_reject",
    "measure",
    "run_sweep",
    "save_trajectory",
    "summarize",
]
