"""Independent correctness checks for minimization results.

These are used by the test-suite and by the benchmark harness to make
sure the pure-Python espresso substrate never returns a wrong cover —
every benchmark number in EXPERIMENTS.md is backed by these checks.
They stay on cube algebra and URP tautology, so they check the
minterm-set espresso of small formats (:mod:`repro.logic.minterms`)
with code it does not share.
"""

from __future__ import annotations

from typing import Optional

from repro.logic import backend
from repro.logic.cover import Cover


def covers_equivalent(a: Cover, b: Cover) -> bool:
    """True when the two covers denote the same function (mutual covering)."""
    return a.covers(b) and b.covers(a)


def verify_minimization(
    result: Cover,
    on: Cover,
    dc: Optional[Cover] = None,
    off: Optional[Cover] = None,
) -> bool:
    """Check the espresso contract.

    * every on-set minterm is covered: ``on ⊆ result ∪ dc``;
    * the result asserts nothing false: with an explicit *off*,
      ``result ∩ off = ∅``; otherwise ``result ⊆ on ∪ dc``.
    """
    fmt = on.fmt
    upper = result.copy()
    if dc is not None:
        upper = upper + dc
    if not upper.covers(on):
        return False
    if off is not None:
        # one batched sweep of the off-set per result cube
        for c in result.cubes:
            if backend.intersect_cube(fmt, off.cubes, c):
                return False
        return True
    on_dc = on.copy()
    if dc is not None:
        on_dc = on_dc + dc
    return on_dc.covers(result)
