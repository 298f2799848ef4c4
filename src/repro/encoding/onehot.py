"""Baseline encodings: 1-hot and random assignments."""

from __future__ import annotations

import random
from typing import Optional

from repro.encoding.base import Encoding
from repro.fsm.machine import minimum_code_length


def onehot_code(n: int) -> Encoding:
    """The 1-hot encoding used as the reference column of Table II."""
    return Encoding(n, [1 << i for i in range(n)])


def random_code(n: int, nbits: Optional[int] = None,
                rng: Optional[random.Random] = None) -> Encoding:
    """A uniform random injective encoding of *n* symbols."""
    if rng is None:
        # nova-lint: disable=NV005 -- deliberately unseeded baseline:
        # options.storable is False for algorithm='random'
        # without a seed, so this path never reaches the cache
        rng = random.Random()
    bits = minimum_code_length(n) if nbits is None else nbits
    codes = rng.sample(range(1 << bits), n)
    return Encoding(bits, codes)
