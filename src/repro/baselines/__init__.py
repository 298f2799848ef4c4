"""Baseline state-assignment programs reimplemented from their papers."""

from repro.baselines.kiss import kiss_code
from repro.baselines.mustang import MUSTANG_OPTIONS, mustang_code

__all__ = [
    "kiss_code",
    "mustang_code",
    "MUSTANG_OPTIONS",
]
