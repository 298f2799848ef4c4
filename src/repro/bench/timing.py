"""Variance-controlled timing: repeated samples, robust statistics.

Best-of-N (the pre-observatory idiom scattered through the benchmark
scripts) answers "how fast can this go" but hides *how noisy* the
measurement was — and a perf-trajectory gate that compares two
best-of-N numbers cannot tell a regression from an unlucky scheduler
quantum.  This module standardizes the protocol:

* **warmup** runs are executed and discarded (they fill memo tables,
  lazy complements, import caches — state every later sample would
  otherwise pay for unevenly);
* **N repeated samples** are collected with a monotonic clock;
* **outlier rejection** drops samples further than ``k`` scaled median
  absolute deviations from the median (MAD is robust: one GC pause or
  CPU-migration spike cannot drag the mean, unlike z-scores where the
  outlier inflates the very std used to reject it);
* the summary reports **mean / std / min / median** over the surviving
  samples plus how many were rejected — dropped data is never silent.

The clock is injectable everywhere so tests drive the math with a fake
counter instead of real sleeps; ``time.perf_counter`` (a duration, not
wall-clock ambient state) is the default.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "DEFAULT_MAD_K",
    "SampleStats",
    "best_of",
    "mad_reject",
    "measure",
    "summarize",
]

#: Samples beyond this many scaled MADs from the median are outliers.
#: 3.5 is the conventional conservative cut (Iglewicz & Hoaglin).
DEFAULT_MAD_K = 3.5

#: Scale factor making the MAD a consistent estimator of the standard
#: deviation under normality.
_MAD_SCALE = 1.4826


@dataclass(frozen=True)
class SampleStats:
    """Summary of one timed unit: robust stats over repeated samples."""

    mean: float
    std: float
    min: float
    median: float
    samples: int          # surviving samples the stats are computed on
    rejected: int = 0     # MAD outliers dropped before summarizing

    def to_dict(self) -> Dict[str, float]:
        return {
            "mean": round(self.mean, 9),
            "std": round(self.std, 9),
            "min": round(self.min, 9),
            "median": round(self.median, 9),
            "samples": self.samples,
            "rejected": self.rejected,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "SampleStats":
        return cls(mean=float(d["mean"]), std=float(d["std"]),
                   min=float(d["min"]), median=float(d["median"]),
                   samples=int(d["samples"]),
                   rejected=int(d.get("rejected", 0)))


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad_reject(samples: Sequence[float],
               k: float = DEFAULT_MAD_K) -> List[float]:
    """Samples within *k* scaled MADs of the median (order preserved).

    With fewer than 3 samples, or a zero MAD (no spread to estimate
    from — e.g. a fake clock returning identical durations), every
    sample is kept: rejection needs a meaningful dispersion estimate,
    and throwing data away on a degenerate one would bias the mean.
    """
    if len(samples) < 3:
        return list(samples)
    med = _median(samples)
    mad = _median([abs(x - med) for x in samples])
    if mad == 0.0:
        return list(samples)
    cut = k * _MAD_SCALE * mad
    return [x for x in samples if abs(x - med) <= cut]


def summarize(samples: Sequence[float],
              reject_outliers: bool = True,
              mad_k: float = DEFAULT_MAD_K) -> SampleStats:
    """Robust summary of raw duration samples.

    ``std`` is the population standard deviation (the sample set *is*
    the population we measured — consistent with the protocol of the
    historical ``legacy-*`` cover-kernel trajectory records).
    """
    if not samples:
        raise ValueError("cannot summarize zero samples")
    kept = mad_reject(samples, mad_k) if reject_outliers else list(samples)
    n = len(kept)
    mean = sum(kept) / n
    var = sum((x - mean) ** 2 for x in kept) / n
    return SampleStats(
        mean=mean,
        std=math.sqrt(var),
        min=min(kept),
        median=_median(kept),
        samples=n,
        rejected=len(samples) - n,
    )


def measure(fn: Callable[[], object],
            repeats: int,
            warmup: int = 1,
            clock: Callable[[], float] = time.perf_counter,
            ) -> List[float]:
    """Raw duration samples of *fn*: *warmup* discarded runs, then
    *repeats* timed ones.

    Returns the samples rather than a summary so callers can pool
    samples from several sources (e.g. per-repeat batch-runner tasks)
    through the same :func:`summarize`.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return samples


def best_of(fn: Callable[[], object],
            repeats: int,
            warmup: int = 1,
            clock: Callable[[], float] = time.perf_counter,
            stats: Optional[Dict[str, Dict[str, float]]] = None,
            label: str = "",
            ) -> float:
    """Minimum duration over *repeats* timed runs (after *warmup*).

    The micro-benchmark convention (min is the least noisy estimator of
    the achievable time for CPU-bound work); when *stats* is given the
    full variance-controlled summary is recorded under *label* too, so
    best-of callers still publish mean±std.
    """
    samples = measure(fn, repeats, warmup=warmup, clock=clock)
    if stats is not None:
        stats[label or getattr(fn, "__name__", "fn")] = \
            summarize(samples).to_dict()
    return min(samples)
