"""The stable public API of the NOVA reproduction.

Import from here (or from the :mod:`repro` package root, which mirrors
this module) rather than from internal modules: everything re-exported
below is covered by the compatibility policy in README §Versioning —
stable within a major version, with deprecations announced one minor
release ahead.

Internal module paths (``repro.encoding.nova``, ``repro.logic.*``, ...)
may move without notice; these names will not.

>>> from repro.api import EncodeOptions, encode_fsm, benchmark
>>> result = encode_fsm(benchmark("lion"),
...                     options=EncodeOptions(algorithm="ihybrid"))
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro._version import __version__
from repro.config import RuntimeConfig, config_scope, get_config
from repro.encoding.nova import (
    ALGORITHMS,
    FALLBACK_CHAIN,
    NovaResult,
    RunReport,
    encode_fsm,
)
from repro.encoding.options import (
    CACHE_POLICIES,
    EFFORTS,
    EncodeOptions,
)
from repro.errors import (
    BudgetExhausted,
    ConstraintError,
    EncodingInfeasible,
    ParseError,
    ReproError,
    VerificationError,
)
from repro.fsm.benchmarks import benchmark, benchmark_names
from repro.fsm.kiss import parse_kiss, to_kiss
from repro.fsm.machine import FSM, Transition

if TYPE_CHECKING:
    from repro.bench import BenchRecord, SweepSpec, load_spec, run_sweep
    from repro.cache import cache_clear, cache_info, cache_prune

__all__ = [
    # pipeline
    "encode_fsm",
    "EncodeOptions",
    "NovaResult",
    "RunReport",
    "ALGORITHMS",
    "CACHE_POLICIES",
    "EFFORTS",
    "FALLBACK_CHAIN",
    # runtime configuration
    "RuntimeConfig",
    "get_config",
    "config_scope",
    # cache controls
    "cache_info",
    "cache_clear",
    "cache_prune",
    # benchmark observatory
    "SweepSpec",
    "load_spec",
    "run_sweep",
    "BenchRecord",
    # machines
    "FSM",
    "Transition",
    "parse_kiss",
    "to_kiss",
    "benchmark",
    "benchmark_names",
    # error taxonomy
    "ReproError",
    "ParseError",
    "ConstraintError",
    "BudgetExhausted",
    "EncodingInfeasible",
    "VerificationError",
    # meta
    "__version__",
]

# the benchmark observatory and the cache controls load on first use:
# an encode with the cache off runs neither
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.bench": ("BenchRecord", "SweepSpec", "load_spec", "run_sweep"),
    "repro.cache": ("cache_clear", "cache_info", "cache_prune"),
})
