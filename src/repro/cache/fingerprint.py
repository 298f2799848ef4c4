"""Content-addressed fingerprints for whole-pipeline encode results.

The encode pipeline is deterministic for a fixed (machine, options,
code) tuple, so one SHA-256 over a canonical rendering of all three is
a sound cache key:

* **machine** — a stable text serialization of the FSM: name, I/O
  widths, reset state, symbolic value lists, and every transition row
  with its don't-care patterns, in table order.  Transition order is
  *kept*, not sorted: KISS semantics resolve overlapping rows by first
  match, so two tables with the same rows in a different order are not
  interchangeable machines.
* **options** — every :class:`~repro.encoding.options.EncodeOptions`
  field that can influence the result, including the RNG ``seed``
  (DESIGN.md §6.7: the ``random`` baseline is a pure function of its
  seed, so the seed is the only thing standing between one cache key
  and many distinct results).  The ``cache`` policy field is excluded —
  it changes where a result comes from, never what it is.
* **code** — :func:`code_salt`, a digest of the source text of the
  packages an encode runs (:data:`ENCODE_PACKAGES`), plus
  ``repro.__version__``.  Any edit to a minimization heuristic or a
  tie-break changes the digest, so two checkouts of one version never
  share entries and a changed tree never reads a result the old code
  computed; no migration logic needed.  The digest is computed on the
  first key of a process, from the files alone (nothing is imported).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from repro import _version
from repro.encoding.options import EncodeOptions
from repro.fsm.machine import FSM

#: Bump when the canonical rendering itself changes shape.
FINGERPRINT_SCHEMA = 1

#: Subpackages of ``repro`` whose code decides an encode result.
ENCODE_PACKAGES = ("baselines", "constraints", "encoding", "eval", "fsm",
                   "logic", "perf", "symbolic")

_code_salt: Optional[str] = None


def source_digest(root: str) -> str:
    """Hex SHA-256 over the ``.py`` files of :data:`ENCODE_PACKAGES`
    under the package directory *root*: their paths and text, in sorted
    order."""
    h = hashlib.sha256()
    for package in ENCODE_PACKAGES:
        top = os.path.join(root, package)
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                h.update(f"{package}/{name}\n".encode("utf-8"))
                with open(os.path.join(top, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def code_salt() -> str:
    """The :func:`source_digest` of this ``repro`` package, computed
    once per process."""
    global _code_salt
    if _code_salt is None:
        _code_salt = source_digest(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return _code_salt


def canonical_fsm(fsm: FSM) -> str:
    """Deterministic text rendering of everything semantic in *fsm*."""
    lines = [
        f"name {fsm.name}",
        f"i {fsm.num_inputs}",
        f"o {fsm.num_outputs}",
        f"r {fsm.reset if fsm.reset is not None else '-'}",
        "states " + " ".join(fsm.states),
        "sym " + " ".join(fsm.symbolic_input_values),
        "symout " + " ".join(fsm.symbolic_output_values),
    ]
    for t in fsm.transitions:
        lines.append(" ".join((
            t.inputs or "-",
            t.symbol if t.symbol is not None else ".",
            t.present,
            t.next,
            t.outputs or "-",
            t.out_symbol if t.out_symbol is not None else ".",
        )))
    return "\n".join(lines)


def canonical_options(options: EncodeOptions) -> str:
    """Deterministic text rendering of the result-relevant options."""
    return json.dumps(dict(options.fingerprint_fields()), sort_keys=True,
                      separators=(",", ":"))


def fingerprint(fsm: FSM, options: EncodeOptions) -> str:
    """The cache key: hex SHA-256 of machine + options + code."""
    payload = "\n\x00".join((
        f"nova-encode-cache/{FINGERPRINT_SCHEMA}",
        _version.__version__,  # looked up at call time: patchable salt
        code_salt(),
        canonical_options(options),
        canonical_fsm(fsm),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
