"""The performance trajectory: append-only record store and regression gate.

``BENCH_TRAJECTORY.json`` is the repository's timing memory: one
:class:`~repro.bench.record.BenchRecord` appended per named suite per
PR, never rewritten.  The comparator aligns the latest record of a
suite against the most recent earlier record sharing at least one unit
(records from other environments or pre-rename suites simply don't
align) and reports per-unit speedups plus their geometric mean — the
geomean, not the arithmetic mean, because speedups are ratios and a 2×
win on one unit should exactly cancel a 2× loss on another.

The gate turns that comparison into an exit code: a geomean below
``1 − max_regress/100`` on any gated suite fails CI.  Suites with no
comparable baseline *pass* by default (a brand-new suite cannot be a
regression) unless ``require_baseline`` is set, which is how CI
distinguishes "first record ever" from "someone deleted the history".

The ``schema: 0`` records under ``legacy-*`` suite names hold the
pre-observatory one-off reports: their numbers were measured under
older protocols (no MAD rejection, some without std at all), so they
are kept for the history but can never falsely align against a live
gated suite.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.record import SCHEMA_VERSION, BenchRecord

__all__ = [
    "DEFAULT_GATE_SUITES",
    "DEFAULT_PATH",
    "TRAJECTORY_SCHEMA",
    "GateResult",
    "SuiteComparison",
    "append_record",
    "compare_suite",
    "gate",
    "load_trajectory",
    "save_trajectory",
]

TRAJECTORY_SCHEMA = 1
DEFAULT_PATH = "BENCH_TRAJECTORY.json"

#: Suites whose regression fails CI (the substrate and table suites).
DEFAULT_GATE_SUITES = ("substrate", "table3", "table6", "table7")


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
def load_trajectory(path: Union[str, Path]) -> List[BenchRecord]:
    """Every record in the trajectory file (empty when absent)."""
    p = Path(path)
    if not p.exists():
        return []
    data = json.loads(p.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "records" not in data:
        raise ValueError(
            f"{p}: not a trajectory file (expected an object with a "
            f"'records' list)")
    schema = int(data.get("schema", 0))
    if schema > TRAJECTORY_SCHEMA:
        raise ValueError(
            f"{p}: trajectory schema {schema} is newer than this "
            f"reader ({TRAJECTORY_SCHEMA}); upgrade before reading")
    return [BenchRecord.from_dict(d) for d in data["records"]]


def save_trajectory(path: Union[str, Path],
                    records: Sequence[BenchRecord]) -> None:
    """Atomically publish the full record list (tmp + fsync + replace)."""
    p = Path(path)
    payload = {
        "schema": TRAJECTORY_SCHEMA,
        "records": [r.to_dict() for r in records],
    }
    data = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    tmp = p.with_name(f"{p.name}.{os.getpid()}.tmp")
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, p)


def append_record(path: Union[str, Path],
                  record: BenchRecord) -> List[BenchRecord]:
    """Append one record and return the new full history."""
    records = load_trajectory(path)
    records.append(record)
    save_trajectory(path, records)
    return records


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuiteComparison:
    """Latest-vs-baseline alignment of one suite."""

    suite: str
    status: str  # "ok" | "no-record" | "no-baseline"
    geomean_speedup: Optional[float] = None
    unit_speedups: Dict[str, float] = field(default_factory=dict)
    current_label: str = ""
    baseline_label: str = ""
    units_compared: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "status": self.status,
            "geomean_speedup": self.geomean_speedup,
            "units_compared": self.units_compared,
            "unit_speedups": {k: round(v, 4) for k, v in
                              sorted(self.unit_speedups.items())},
            "current_label": self.current_label,
            "baseline_label": self.baseline_label,
        }


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def compare_suite(records: Sequence[BenchRecord],
                  suite: str) -> SuiteComparison:
    """Latest record of *suite* vs the newest earlier comparable one.

    Comparable means: same suite name, schema >= 1 (``legacy-*`` records
    are history, not baselines), and at least one unit key in common with
    positive means on both sides.
    """
    history = [r for r in records if r.suite == suite and r.schema >= 1]
    if not history:
        return SuiteComparison(suite=suite, status="no-record")
    current = history[-1]
    for baseline in reversed(history[:-1]):
        speedups = {}
        for key, cur in current.units.items():
            base = baseline.units.get(key)
            if base is None or base.mean <= 0 or cur.mean <= 0:
                continue
            speedups[key] = base.mean / cur.mean
        if speedups:
            return SuiteComparison(
                suite=suite,
                status="ok",
                geomean_speedup=_geomean(list(speedups.values())),
                unit_speedups=speedups,
                current_label=current.label,
                baseline_label=baseline.label,
                units_compared=len(speedups),
            )
    return SuiteComparison(suite=suite, status="no-baseline",
                           current_label=current.label)


@dataclass(frozen=True)
class GateResult:
    """Aggregate gate verdict over the gated suites."""

    max_regress_pct: float
    comparisons: Tuple[SuiteComparison, ...]
    regressions: Tuple[str, ...]
    missing: Tuple[str, ...]   # gated suites with no comparable baseline

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "max_regress_pct": self.max_regress_pct,
            "regressions": list(self.regressions),
            "missing_baselines": list(self.missing),
            "suites": [c.to_dict() for c in self.comparisons],
        }


def gate(records: Sequence[BenchRecord],
         max_regress_pct: float,
         suites: Sequence[str] = DEFAULT_GATE_SUITES) -> GateResult:
    """Check every gated suite's latest record against its baseline.

    A suite regresses when its geomean speedup drops below
    ``1 − max_regress_pct/100``.  Suites without a comparable baseline
    are reported in ``missing`` and left to the caller's policy
    (``nova bench gate --require-baseline`` turns them into a distinct
    non-zero exit).
    """
    if max_regress_pct < 0:
        raise ValueError(
            f"max_regress_pct must be >= 0, got {max_regress_pct}")
    floor = 1.0 - max_regress_pct / 100.0
    comparisons = []
    regressions = []
    missing = []
    for suite in suites:
        comp = compare_suite(records, suite)
        comparisons.append(comp)
        if comp.status != "ok":
            missing.append(suite)
        elif comp.geomean_speedup is not None \
                and comp.geomean_speedup < floor:
            regressions.append(suite)
    return GateResult(
        max_regress_pct=max_regress_pct,
        comparisons=tuple(comparisons),
        regressions=tuple(regressions),
        missing=tuple(missing),
    )


# keep the public schema constant importable from one obvious place
RECORD_SCHEMA = SCHEMA_VERSION
