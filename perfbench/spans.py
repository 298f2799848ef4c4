"""Per-layer spans recorded from outside the program.

The benchmark never edits the program to time it.  Instead, while a
traced run is active, :class:`Tracer` replaces the layer entry points
that the encode pipeline (``repro.encoding.nova``) calls with thin timing
wrappers, and restores the originals afterwards.  Each wrapped call is
one span: the layer name, its start and its end.  The pipeline calls each
layer in turn and no wrapped layer calls another, so the spans of one
operation never overlap and their sum is the time the operation spent
inside the named layers; the rest of the operation's time is bookkeeping,
transport or process overhead.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: layer name -> (module, attribute) call sites wrapped while tracing
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "cover": [("repro.encoding.nova", "build_symbolic_cover")],
    "mv_min": [("repro.encoding.nova", "extract_input_constraints"),
               ("repro.encoding.nova", "symbolic_minimize")],
    "embed": [("repro.encoding.nova", name) for name in (
        "ihybrid_code", "igreedy_code", "iohybrid_code", "random_code",
        "onehot_code")]
    + [("repro.baselines.kiss", "kiss_code")],
    "encoded_min": [("repro.encoding.nova", "evaluate_encoding")],
    "verify": [("repro.encoding.verify", "verify_encoded_machine")],
}

#: every layer a traced run reports, in pipeline order
STAGES = ("parse", "cover", "mv_min", "embed", "encoded_min", "verify")


class Tracer:
    """Accumulates span durations per layer for the ops of one run."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {s: 0.0 for s in STAGES}

    def add(self, layer: str, seconds: float) -> None:
        self.seconds[layer] += seconds

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(layer, time.perf_counter() - t0)

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(layer, time.perf_counter() - t0)
        return timed

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer call site for the duration of the block."""
        saved = []
        try:
            for layer, sites in LAYERS.items():
                for modname, attr in sites:
                    module = importlib.import_module(modname)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def stage_sum(self) -> float:
        return sum(self.seconds.values())
