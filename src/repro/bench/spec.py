"""Declarative sweep specifications for the benchmark observatory.

A :class:`SweepSpec` names one *suite*: the cross product of machines ×
algorithms × seeds, each unit timed ``repeats`` times after ``warmup``
discarded runs, under explicit cache policy and
:class:`~repro.encoding.options.EncodeOptions` overrides.  Specs are
data, not code — loadable from JSON or TOML (:func:`load_spec`) and
checked eagerly at construction, so a typo'd algorithm name or a
negative repeat count fails when the spec is *read*, not twenty minutes
into a sweep.

The spec deliberately reuses the vocabulary of the batch runner and the
table harness: ``kind="encode"`` units become
:class:`~repro.runner.batch.BatchTask` encode tasks, ``kind="table"``
units become table-row tasks, and ``subset`` names one of the builtin
machine sets (``small`` / ``paper30`` / ``table5`` / ``table7`` /
``all``) — compilation onto the runner lives in
:mod:`repro.bench.sweep`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.encoding.options import ALGORITHMS, CACHE_POLICIES

__all__ = [
    "SweepSpec",
    "load_spec",
]

_KINDS = ("encode", "table")

#: Fields a spec file may set; anything else is rejected eagerly.
_SPEC_FIELDS = (
    "name", "kind", "machines", "subset", "table", "algorithms",
    "seeds", "options", "repeats", "warmup", "cache", "task_timeout",
)


@dataclass(frozen=True)
class SweepSpec:
    """One named benchmark suite: what to run and how to time it.

    ``machines`` lists units explicitly; ``subset`` names a benchmark
    set, which compiles to every machine of
    :func:`~repro.fsm.benchmarks.benchmark_names`.  Exactly one of the
    two must be given.  ``cache`` defaults to ``"off"`` — a timing
    sweep that silently hits the encode cache measures a dict lookup,
    not the algorithm; specs must opt *in* to cached timing.
    """

    name: str
    kind: str = "encode"
    machines: Tuple[str, ...] = ()
    subset: str = ""
    table: Optional[int] = None
    algorithms: Tuple[str, ...] = ("ihybrid",)
    seeds: Tuple[int, ...] = ()
    options: Dict[str, object] = field(default_factory=dict)
    repeats: int = 3
    warmup: int = 1
    cache: str = "off"
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sweep spec needs a non-empty name")
        if self.kind not in _KINDS:
            raise ValueError(
                f"spec {self.name!r}: unknown kind {self.kind!r} "
                f"(use {'/'.join(_KINDS)})")
        if bool(self.machines) == bool(self.subset):
            raise ValueError(
                f"spec {self.name!r}: give exactly one of 'machines' "
                f"(explicit list) or 'subset' (named set)")
        if self.kind == "table":
            if self.table is None:
                raise ValueError(
                    f"spec {self.name!r}: kind 'table' needs a table "
                    f"number")
        elif self.table is not None:
            raise ValueError(
                f"spec {self.name!r}: 'table' only applies to kind "
                f"'table'")
        if not self.algorithms:
            raise ValueError(
                f"spec {self.name!r}: needs at least one algorithm")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(
                    f"spec {self.name!r}: unknown algorithm {algo!r} "
                    f"(known: {', '.join(ALGORITHMS)})")
        if self.repeats < 1:
            raise ValueError(
                f"spec {self.name!r}: repeats must be >= 1, got "
                f"{self.repeats}")
        if self.warmup < 0:
            raise ValueError(
                f"spec {self.name!r}: warmup must be >= 0, got "
                f"{self.warmup}")
        if self.cache not in CACHE_POLICIES:
            raise ValueError(
                f"spec {self.name!r}: unknown cache policy "
                f"{self.cache!r} (use {'/'.join(CACHE_POLICIES)})")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"spec {self.name!r}: task_timeout must be positive, "
                f"got {self.task_timeout}")
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ValueError(
                    f"spec {self.name!r}: seeds must be integers, got "
                    f"{seed!r}")

    # ------------------------------------------------------------------
    def units(self, machines: Optional[List[str]] = None,
              ) -> List[Tuple[str, str, str, Optional[int]]]:
        """The unit grid: ``(unit_key, machine, algorithm, seed)``.

        *machines* overrides the spec's own list (the compiler passes
        the resolved subset).  Unit keys are ``machine/algorithm`` plus
        ``/s<seed>`` only when the spec sweeps seeds, so suites without
        a seed dimension keep short stable keys across PRs.
        """
        names = list(machines) if machines is not None else \
            list(self.machines)
        seeds: List[Optional[int]] = list(self.seeds) or [None]
        out = []
        for machine in names:
            for algo in self.algorithms:
                for seed in seeds:
                    key = f"{machine}/{algo}"
                    if seed is not None:
                        key += f"/s{seed}"
                    out.append((key, machine, algo, seed))
        return out

    def to_dict(self) -> Dict[str, object]:
        d = dataclasses.asdict(self)
        d["machines"] = list(self.machines)
        d["algorithms"] = list(self.algorithms)
        d["seeds"] = list(self.seeds)
        return d

    @classmethod
    def from_dict(cls, d: Dict, source: str = "spec") -> "SweepSpec":
        unknown = sorted(set(d) - set(_SPEC_FIELDS))
        if unknown:
            raise ValueError(
                f"{source}: unknown spec key(s) {', '.join(unknown)} "
                f"(known: {', '.join(_SPEC_FIELDS)})")
        kwargs = dict(d)
        for key in ("machines", "algorithms"):
            if key in kwargs:
                kwargs[key] = tuple(str(x) for x in kwargs[key])
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(kwargs["seeds"])
        if "options" in kwargs and not isinstance(kwargs["options"], dict):
            raise ValueError(f"{source}: 'options' must be a table/object")
        return cls(**kwargs)

    def replace(self, **changes: object) -> "SweepSpec":
        return dataclasses.replace(self, **changes)


def load_spec(path: Union[str, Path]) -> SweepSpec:
    """Read one :class:`SweepSpec` from a ``.json`` or ``.toml`` file."""
    p = Path(path)
    if p.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - py3.10 only
            raise ValueError(
                f"{p}: TOML specs need Python 3.11+ (tomllib); use the "
                f"JSON form on this interpreter") from exc

        with open(p, "rb") as fh:
            data = tomllib.load(fh)
    elif p.suffix == ".json":
        data = json.loads(p.read_text(encoding="utf-8"))
    else:
        raise ValueError(
            f"{p}: unsupported spec format {p.suffix!r} (use .json or "
            f".toml)")
    if not isinstance(data, dict):
        raise ValueError(f"{p}: spec file must contain one object/table")
    return SweepSpec.from_dict(data, source=str(p))
