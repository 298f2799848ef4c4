"""The :class:`EncodeOptions` bundle: every knob of :func:`encode_fsm`.

A single frozen dataclass that can be constructed once, varied with
:meth:`replace`, hashed into a cache fingerprint, and shipped across
process boundaries as a plain dict.

``encode_fsm`` takes it in one of two call shapes, never both at once:

* an options object — ``encode_fsm(fsm, options=EncodeOptions(...))``;
* its fields as keywords — ``encode_fsm(fsm, "iexact", nbits=4)`` —
  which build ``EncodeOptions(algorithm="iexact", nbits=4)``.

Mixing the two raises ``TypeError``.

Stochastic runs are requested with a plain ``seed: int`` — never a
``random.Random`` instance, which is unhashable and would poison cache
keys.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Every encoding algorithm the driver dispatches on.  Lives here (a
#: leaf module) so both the driver and the CLI can import it without
#: pulling the full pipeline.
ALGORITHMS = (
    "iexact",
    "ihybrid",
    "igreedy",
    "iohybrid",
    "iovariant",
    "kiss",
    "onehot",
    "random",
    "mustang",
)

EFFORTS = ("full", "low")

#: Cache policies (see :mod:`repro.cache`): ``auto`` follows the
#: ``NOVA_CACHE``/``NOVA_CACHE_DIR`` environment, ``on`` forces the
#: two-tier cache, ``memory`` keeps only the in-process LRU, ``off``
#: disables lookups and fills entirely.
CACHE_POLICIES = ("auto", "on", "off", "memory")

#: Fields of :class:`EncodeOptions` that never change the *result* and
#: are therefore excluded from cache fingerprints.  ``nova lint``
#: (rule NV001) statically checks that ``fingerprint_fields`` excludes
#: exactly this set: adding a field to the dataclass keeps it in the
#: fingerprint unless it is deliberately whitelisted here.
NON_FINGERPRINT_FIELDS = frozenset({"cache"})


@dataclass(frozen=True)
class EncodeOptions:
    """Immutable, hashable bundle of every :func:`encode_fsm` knob.

    Fields
    ------
    algorithm / nbits / effort / mustang_option:
        What to run: the encoding algorithm, an optional pinned code
        length, the minimization effort, and (for ``mustang``) which
        weight heuristic.
    seed:
        Integer seed for stochastic algorithms (``random``).  Part of
        the cache fingerprint: two runs with the same seed are
        bit-identical, so their shared cache entry is sound.
    timeout / fallback:
        Run shaping: the cooperative wall-clock budget and the
        degradation chain switch.  The post-encode verification gate
        always runs.
    cache:
        Cache policy for this run (see :data:`CACHE_POLICIES`).  The
        policy never changes the *result*, only where it comes from, so
        it is excluded from cache fingerprints.
    """

    algorithm: str = "ihybrid"
    nbits: Optional[int] = None
    effort: str = "full"
    seed: Optional[int] = None
    timeout: Optional[float] = None
    fallback: bool = True
    mustang_option: str = "p"
    cache: str = "auto"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; "
                             f"choose from {ALGORITHMS}")
        if self.effort not in EFFORTS:
            raise ValueError(f"unknown effort {self.effort!r}; "
                             f"choose from {EFFORTS}")
        if self.cache not in CACHE_POLICIES:
            raise ValueError(f"unknown cache policy {self.cache!r}; "
                             f"choose from {CACHE_POLICIES}")
        if self.seed is not None and not isinstance(self.seed, int):
            raise TypeError(
                f"seed must be an int (got {type(self.seed).__name__}); "
                f"random.Random instances are unhashable and cannot "
                f"participate in cache keys — pass the integer seed "
                f"instead")
        if self.nbits is not None and self.nbits < 1:
            raise ValueError(f"nbits must be >= 1, got {self.nbits}")

    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "EncodeOptions":
        """A copy with *changes* applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict, e.g. for batch task specs and manifests."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "EncodeOptions":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown EncodeOptions fields: "
                             f"{sorted(unknown)}")
        return cls(**d)

    # ------------------------------------------------------------------
    def fingerprint_fields(self) -> Tuple[Tuple[str, Any], ...]:
        """The (name, value) pairs that participate in cache keys.

        Everything that can change the *result* is included; the
        fields of :data:`NON_FINGERPRINT_FIELDS` are pure policy and
        excluded.
        """
        return tuple(
            (f.name, getattr(self, f.name))
            for f in dataclasses.fields(self)
            if f.name not in NON_FINGERPRINT_FIELDS
        )

    @property
    def storable(self) -> bool:
        """Whether runs under these options may use the cache at all.

        The only stochastic path is the ``random`` baseline without a
        pinned seed; every other algorithm is deterministic for a fixed
        machine + options tuple, and a non-deterministic run is never
        cached (a hit could replay someone else's coin flips).  A
        wall-clock ``timeout`` does *not* disqualify the options: it is
        part of the fingerprint, and :func:`repro.cache.store` refuses
        any result the budget actually degraded.
        """
        return not (self.algorithm == "random" and self.seed is None)
