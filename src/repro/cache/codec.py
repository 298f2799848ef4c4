"""Lossless JSON round-trip for :class:`~repro.encoding.nova.NovaResult`.

A cache hit must be indistinguishable from recomputation, so the codec
serializes *everything* the pipeline produced — the exact encodings,
the table metrics, the full :class:`RunReport`, and the minimized
:class:`EncodedPLA` with all four covers (cubes are arbitrary-precision
ints; they travel as hex strings).  The FSM itself is *not* stored:
the fingerprint already guarantees the caller's machine is the one the
payload was computed from, so rehydration grafts the payload onto the
caller's ``FSM`` object.

Decoding is defensive: any malformed payload raises
:class:`CacheDecodeError`, which the cache layer treats as a miss (and
quarantines the on-disk blob) — a corrupt cache can cost a
recomputation, never a wrong answer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.encoding.base import Encoding
from repro.encoding.nova import NovaResult, RunReport
from repro.eval.instantiate import EncodedPLA
from repro.fsm.machine import FSM
from repro.logic.cover import Cover
from repro.logic.cube import Format

#: Bump when the payload layout changes; readers reject other versions.
PAYLOAD_VERSION = 1


class CacheDecodeError(ValueError):
    """The payload does not decode to a result for this machine."""


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------
def _enc_cover(c: Cover) -> List[str]:
    return [format(cube, "x") for cube in c.cubes]


def encode_pla(pla: Optional[EncodedPLA]) -> Optional[Dict]:
    """The JSON-safe form of a minimized PLA, its four covers in hex."""
    if pla is None:
        return None
    return {
        "fmt": list(pla.cover.fmt.parts),
        "state_bits": pla.state_bits,
        "input_bits": pla.input_bits,
        "out_bits": pla.out_bits,
        "cover": _enc_cover(pla.cover),
        "on": _enc_cover(pla.on),
        "dc": _enc_cover(pla.dc),
        "off": _enc_cover(pla.off),
    }


def make_payload(record: Dict, pla: Optional[Dict]) -> Dict:
    """The cache payload layout: the payload version, a result's journal
    record (:meth:`NovaResult.to_record`) and its :func:`encode_pla`."""
    return {"v": PAYLOAD_VERSION, **record, "pla": pla}


def encode_result(result: NovaResult) -> Dict:
    """The JSON-safe cache payload for *result*."""
    return make_payload(result.to_record(), encode_pla(result.pla))


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def _dec_encoding(d: Optional[Dict]) -> Optional[Encoding]:
    if d is None:
        return None
    return Encoding(int(d["nbits"]), [int(c) for c in d["codes"]])


def _dec_cover(fmt: Format, cubes: List[str]) -> Cover:
    out = Cover(fmt)
    out.cubes = [int(c, 16) for c in cubes]
    return out


def _dec_pla(fsm: FSM, d: Optional[Dict]) -> Optional[EncodedPLA]:
    if d is None:
        return None
    fmt = Format([int(p) for p in d["fmt"]])
    return EncodedPLA(
        fsm=fsm,
        state_bits=int(d["state_bits"]),
        input_bits=int(d["input_bits"]),
        out_bits=int(d["out_bits"]),
        cover=_dec_cover(fmt, d["cover"]),
        on=_dec_cover(fmt, d["on"]),
        dc=_dec_cover(fmt, d["dc"]),
        off=_dec_cover(fmt, d["off"]),
    )


def decode_result(fsm: FSM, payload: Dict) -> NovaResult:
    """Rebuild the full :class:`NovaResult` for *fsm* from *payload*.

    Fresh objects are constructed on every call, so rehydrated results
    never alias mutable state across callers.
    """
    try:
        if payload.get("v") != PAYLOAD_VERSION:
            raise CacheDecodeError(
                f"payload version {payload.get('v')!r} != {PAYLOAD_VERSION}")
        if payload.get("machine") != fsm.name:
            raise CacheDecodeError(
                f"payload is for machine {payload.get('machine')!r}, "
                f"not {fsm.name!r}")
        state_enc = _dec_encoding(payload["state_encoding"])
        if state_enc is None or state_enc.n != fsm.num_states:
            raise CacheDecodeError("state encoding does not fit the machine")
        report_d = payload.get("report")
        return NovaResult(
            fsm=fsm,
            algorithm=payload["algorithm"],
            state_encoding=state_enc,
            symbol_encoding=_dec_encoding(payload["symbol_encoding"]),
            out_symbol_encoding=_dec_encoding(payload["out_symbol_encoding"]),
            pla=_dec_pla(fsm, payload.get("pla")),
            cubes=int(payload["cubes"]),
            area=int(payload["area"]),
            seconds=float(payload.get("seconds", 0.0)),
            satisfied_weight=int(payload.get("satisfied_weight", 0)),
            unsatisfied_weight=int(payload.get("unsatisfied_weight", 0)),
            mv_cover_size=int(payload.get("mv_cover_size", 0)),
            report=(None if report_d is None
                    else RunReport.from_dict(report_d)),
        )
    except CacheDecodeError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CacheDecodeError(f"malformed cache payload: {exc}") from exc
