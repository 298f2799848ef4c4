"""Machine-set and parallelism discovery for benchmark harnesses.

One home for the selection logic that used to be copy-pasted between
``benchmarks/conftest.py`` and the table CLI: which machines a harness
actually runs is the *table's* machine set intersected with the active
quick-slice (``NOVA_BENCH_SET``, default ``small``), and how wide it
runs comes from the runtime config (``bench_jobs``, or
``NOVA_BENCH_JOBS``).

Keeping this in the package (not in a conftest) means the pytest
harness, the ``nova table`` command, and the ``nova bench`` sweeps all
agree on what "the small slice of table 3" means.
"""

from __future__ import annotations

from typing import List, Optional

from repro import config as config_mod
from repro.fsm.benchmarks import benchmark_names

__all__ = [
    "DEFAULT_TASK_TIMEOUT",
    "bench_jobs",
    "bench_subset",
    "subset_names",
    "task_timeout",
]

#: Hard per-attempt kill for batched benchmark rows (seconds).
DEFAULT_TASK_TIMEOUT = 900.0


def bench_subset(default: str = "small") -> str:
    """The active quick-slice name (``NOVA_BENCH_SET``).

    Resolved through :func:`repro.config.bench_set`, so a
    ``$NOVA_CONFIG`` file or :func:`repro.config.config_scope` overlay
    can pin the slice with the usual precedence.
    """
    value = config_mod.bench_set()
    return value if value is not None else default


def subset_names(table: str = "paper30",
                 subset: Optional[str] = None) -> List[str]:
    """Machines to run: *table*'s set intersected with the active slice.

    The intersection preserves *table* order (paper row order).  When
    the slice shares nothing with the table — e.g. ``small`` against
    ``table5`` — the first three table machines stand in, so a harness
    always runs *something* representative rather than zero rows.
    """
    active = bench_subset() if subset is None else subset
    table_set = benchmark_names(table)
    if active == table:
        return table_set
    chosen = benchmark_names(active) if active != "paper30" else table_set
    names = [n for n in table_set if n in set(chosen)]
    return names or table_set[:3]


def bench_jobs() -> int:
    """Worker-process width for batched benchmark runs (>= 1)."""
    return config_mod.bench_jobs()


def task_timeout(default: float = DEFAULT_TASK_TIMEOUT) -> float:
    """Per-attempt hard-kill seconds (``NOVA_BENCH_TASK_TIMEOUT``).

    Parsing and the positive-seconds validation live in
    :mod:`repro.config`, which raises ``ValueError`` naming the
    offending source on a malformed value.
    """
    value = config_mod.bench_task_timeout()
    return value if value is not None else default
