"""NOVA's encoding algorithms: the paper's primary contribution."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.encoding.base import (
        Encoding,
        constraint_satisfied,
        satisfied_masks,
    )
    from repro.encoding.iexact import iexact_code, semiexact_code
    from repro.encoding.igreedy import igreedy_code
    from repro.encoding.ihybrid import ihybrid_code
    from repro.encoding.iohybrid import iohybrid_code, iovariant_code
    from repro.encoding.nova import (
        ALGORITHMS,
        FALLBACK_CHAIN,
        FallbackEvent,
        NovaResult,
        RunReport,
        encode_fsm,
        fallback_chain,
    )
    from repro.encoding.onehot import onehot_code, random_code
    from repro.encoding.out_encoder import out_encoder
    from repro.encoding.project import project_code
    from repro.encoding.verify import (
        VerificationReport,
        verify_encoded_machine,
    )

__all__ = [
    "Encoding",
    "constraint_satisfied",
    "satisfied_masks",
    "iexact_code",
    "semiexact_code",
    "project_code",
    "ihybrid_code",
    "igreedy_code",
    "iohybrid_code",
    "iovariant_code",
    "out_encoder",
    "onehot_code",
    "random_code",
    "NovaResult",
    "RunReport",
    "FallbackEvent",
    "encode_fsm",
    "fallback_chain",
    "ALGORITHMS",
    "FALLBACK_CHAIN",
    "VerificationReport",
    "verify_encoded_machine",
]

# lazy so that importing one algorithm module does not import the
# pipeline: repro.eval.instantiate needs repro.encoding.base, and
# repro.encoding.nova itself imports repro.eval.instantiate
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.encoding.base": (
        "Encoding", "constraint_satisfied", "satisfied_masks"),
    "repro.encoding.iexact": ("iexact_code", "semiexact_code"),
    "repro.encoding.igreedy": ("igreedy_code",),
    "repro.encoding.ihybrid": ("ihybrid_code",),
    "repro.encoding.iohybrid": ("iohybrid_code", "iovariant_code"),
    "repro.encoding.nova": (
        "ALGORITHMS", "FALLBACK_CHAIN", "FallbackEvent", "NovaResult",
        "RunReport", "encode_fsm", "fallback_chain"),
    "repro.encoding.onehot": ("onehot_code", "random_code"),
    "repro.encoding.out_encoder": ("out_encoder",),
    "repro.encoding.project": ("project_code",),
    "repro.encoding.verify": (
        "VerificationReport", "verify_encoded_machine"),
})
