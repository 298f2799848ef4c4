"""Reproduction of NOVA: optimal state assignment of finite state machines.

Villa & Sangiovanni-Vincentelli, "NOVA: State Assignment of Finite State
Machines for Optimal Two-Level Logic Implementation", DAC 1989 /
IEEE TCAD 9(9), 1990.

Public API highlights:

* :func:`repro.encode_fsm` — the full pipeline (MV/symbolic
  minimization, encoding, re-minimization, area);
* :mod:`repro.fsm` — machines, KISS2 I/O, the benchmark suite;
* :mod:`repro.encoding` — iexact/ihybrid/igreedy/iohybrid and baselines;
* :mod:`repro.logic` — the espresso-style two-level/MV minimizer;
* :mod:`repro.eval` — PLA instantiation, area model, tables harness;
* :mod:`repro.cache` — the content-addressed encode result cache;
* :mod:`repro.api` — the stable facade these names are mirrored from.
"""

from typing import TYPE_CHECKING

from repro import _codemap
from repro._lazy import lazy_exports
from repro._version import __version__

# every later repro import of the process goes into its map of compiled
# code, which the workers it spawns are handed (repro._codemap)
_codemap.install()

if TYPE_CHECKING:
    from repro.cache import cache_clear, cache_info, cache_prune
    from repro.config import RuntimeConfig, config_scope, get_config
    from repro.encoding.nova import (
        ALGORITHMS,
        NovaResult,
        RunReport,
        encode_fsm,
    )
    from repro.encoding.options import EncodeOptions
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

__all__ = [
    "ALGORITHMS",
    "EncodeOptions",
    "NovaResult",
    "RunReport",
    "encode_fsm",
    "cache_info",
    "cache_clear",
    "cache_prune",
    "RuntimeConfig",
    "get_config",
    "config_scope",
    "ReproError",
    "ParseError",
    "ConstraintError",
    "BudgetExhausted",
    "EncodingInfeasible",
    "VerificationError",
    "benchmark",
    "benchmark_names",
    "parse_kiss",
    "to_kiss",
    "FSM",
    "Transition",
    "__version__",
]

# re-exports resolve on first use (repro._lazy): a spawned worker
# imports this package on its way to repro.runner.worker and must not
# pay for the cache, the encode pipeline or the benchmark machines here
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cache": ("cache_clear", "cache_info", "cache_prune"),
    "repro.config": ("RuntimeConfig", "config_scope", "get_config"),
    "repro.encoding.nova": (
        "ALGORITHMS", "NovaResult", "RunReport", "encode_fsm"),
    "repro.encoding.options": ("EncodeOptions",),
    "repro.errors": (
        "BudgetExhausted", "ConstraintError", "EncodingInfeasible",
        "ParseError", "ReproError", "VerificationError"),
    "repro.fsm.benchmarks": ("benchmark", "benchmark_names"),
    "repro.fsm.kiss": ("parse_kiss", "to_kiss"),
    "repro.fsm.machine": ("FSM", "Transition"),
})
