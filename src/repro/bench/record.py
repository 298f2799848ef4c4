"""Schema-versioned benchmark records and environment capture.

One record format is shared by every producer and consumer of timing
data: ``nova bench run`` emits it, the trajectory store
(:mod:`repro.bench.trajectory`) appends and compares it, and the legacy
``BENCH_PR6/7/8.json`` importer folds old one-off reports into it (with
``schema: 0`` provenance so consumers know those fields were
reconstructed, not measured under this protocol).

A record is one *suite* (a named :class:`~repro.bench.spec.SweepSpec`)
run once: per-unit :class:`~repro.bench.timing.SampleStats` keyed by
``machine/algorithm[/seed]``, plus the environment snapshot that makes
two records comparable (or tells you why they are not — comparing a
record from another interpreter or host measures the environment, not
the PR).  Records appended before the cover kernels became pure-python
only carry an extra ``substrate`` key; it loads and compares like any
other unknown key.

Schema policy: ``SCHEMA_VERSION`` bumps only when a field changes
meaning or is removed; *adding* optional fields is backward compatible
and does not bump.  Loaders accept any ``schema <= SCHEMA_VERSION`` and
must tolerate unknown keys.  Records never mutate once appended.

Determinism contract (NV005): nothing here reads the wall clock — the
``timestamp`` is a parameter, supplied by the CLI layer.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bench.timing import SampleStats

__all__ = [
    "SCHEMA_VERSION",
    "BenchRecord",
    "capture_environment",
]

#: Version of the record layout below.  0 is reserved for records
#: reconstructed from pre-observatory BENCH_PR*.json reports.
SCHEMA_VERSION = 1


def capture_environment() -> Dict[str, object]:
    """Snapshot of everything that makes timing numbers (in)comparable.

    Captured once per record, not per unit: the interpreter and the
    host do not change mid-sweep.
    """
    from repro import __version__

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "repro_version": __version__,
    }


@dataclass(frozen=True)
class BenchRecord:
    """One suite run: per-unit stats plus provenance.

    ``units`` keys are ``machine/algorithm`` (plus ``/s<seed>`` when the
    spec sweeps seeds) so two records of the same suite align unit-wise
    for the speedup comparison.
    """

    suite: str
    units: Dict[str, SampleStats]
    environment: Dict[str, object] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION
    timestamp: Optional[float] = None   # supplied by the caller (CLI)
    label: str = ""                     # free-form: PR id, git sha, ...
    spec: Dict[str, object] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.suite:
            raise ValueError("BenchRecord.suite must be non-empty")
        if self.schema > SCHEMA_VERSION:
            raise ValueError(
                f"record schema {self.schema} is newer than this "
                f"reader (schema {SCHEMA_VERSION}); upgrade before "
                f"comparing")
        if self.schema >= 1 and not self.units:
            raise ValueError(
                f"suite {self.suite!r}: a schema>=1 record needs at "
                f"least one measured unit")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "suite": self.suite,
            "timestamp": self.timestamp,
            "label": self.label,
            "environment": dict(self.environment),
            "spec": dict(self.spec),
            "units": {name: stats.to_dict()
                      for name, stats in sorted(self.units.items())},
            "notes": dict(self.notes),
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "BenchRecord":
        units = {name: SampleStats.from_dict(stats)
                 for name, stats in dict(d.get("units", {})).items()}
        return cls(
            suite=str(d["suite"]),
            units=units,
            environment=dict(d.get("environment", {})),
            schema=int(d.get("schema", 0)),
            timestamp=d.get("timestamp"),
            label=str(d.get("label", "")),
            spec=dict(d.get("spec", {})),
            notes=dict(d.get("notes", {})),
        )

    def replace(self, **changes: object) -> "BenchRecord":
        return dataclasses.replace(self, **changes)
