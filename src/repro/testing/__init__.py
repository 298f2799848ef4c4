"""Test-support utilities: deterministic fault injection for the
pipeline, plus the runtime crash-consistency sanitizer."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.testing.faults import Fault, FaultPlan, inject, trip
    from repro.testing.sanitize import (
        AtomicWriteSanitizer,
        SanitizerReport,
        slow_callback_watch,
        watched_run,
    )

__all__ = [
    "AtomicWriteSanitizer",
    "Fault",
    "FaultPlan",
    "SanitizerReport",
    "inject",
    "slow_callback_watch",
    "trip",
    "watched_run",
]

# the encode path imports repro.testing.faults; the sanitizer (and the
# asyncio it needs) loads only when a test asks for it
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.testing.faults": ("Fault", "FaultPlan", "inject", "trip"),
    "repro.testing.sanitize": (
        "AtomicWriteSanitizer", "SanitizerReport", "slow_callback_watch",
        "watched_run"),
})
