"""Which machines a paper table runs, and how long a row may take.

``nova table N --subset S`` runs table *N*'s own machine set
(:data:`repro.eval.tables.TABLE_SETS`) intersected with the named
subset, in paper row order; ``--subset all`` is the full protocol.
The subset is always given explicitly: no environment or config value
slices it.
"""

from __future__ import annotations

from typing import List

from repro.fsm.benchmarks import benchmark_names

__all__ = [
    "DEFAULT_TASK_TIMEOUT",
    "subset_names",
]

#: Hard per-attempt kill for a batched table row (seconds).
DEFAULT_TASK_TIMEOUT = 900.0


def subset_names(table: str, subset: str) -> List[str]:
    """The machines of set *table* that are also in *subset*, in
    *table* order."""
    chosen = set(benchmark_names(subset))
    return [n for n in benchmark_names(table) if n in chosen]
