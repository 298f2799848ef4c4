"""Encode results stay pinned to ``benchmarks/golden_signatures.json``.

The quick slice of the 91-pair golden matrix: every non-iexact pair,
plus iexact on the machines where it finishes well within a second.
``benchmarks/check_signatures.py`` checks the full matrix and the
paper30 ihybrid/igreedy slice (CI runs both) and, with ``--update``,
rewrites the golden file.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = (Path(__file__).resolve().parents[1] / "benchmarks"
           / "check_signatures.py")
_spec = importlib.util.spec_from_file_location("check_signatures", _SCRIPT)
assert _spec is not None and _spec.loader is not None
signatures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(signatures)

GOLDEN = signatures.load_golden()


def test_golden_file_covers_the_full_matrix():
    small = {signatures.key(m, a) for m, a in signatures.all_pairs()}
    paper30 = {signatures.key(m, a) for m, a in signatures.paper30_pairs()}
    assert len(small) == 91 and len(paper30) == 60
    assert set(GOLDEN) == small | paper30


def test_quick_slice_is_every_non_iexact_pair_plus_fast_iexact():
    quick = signatures.quick_pairs()
    assert sum(a != "iexact" for _, a in quick) == 78
    assert {m for m, a in quick if a == "iexact"} == \
        set(signatures.QUICK_IEXACT)


@pytest.mark.parametrize(
    "machine,algorithm", signatures.quick_pairs(),
    ids=[signatures.key(m, a) for m, a in signatures.quick_pairs()])
def test_signature_matches_golden(machine, algorithm):
    assert signatures.signature(machine, algorithm) == \
        GOLDEN[signatures.key(machine, algorithm)]
