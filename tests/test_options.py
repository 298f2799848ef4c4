"""EncodeOptions: validation, and the two call shapes of encode_fsm."""

from __future__ import annotations

import random

import pytest

from repro.encoding.nova import encode_fsm
from repro.encoding.options import (
    ALGORITHMS,
    CACHE_POLICIES,
    EncodeOptions,
)
from repro.fsm.benchmarks import benchmark


class TestConstruction:
    def test_defaults(self):
        o = EncodeOptions()
        assert o.algorithm == "ihybrid"
        assert o.effort == "full"
        assert o.seed is None
        assert o.cache == "auto"

    def test_frozen(self):
        o = EncodeOptions()
        with pytest.raises(Exception):
            o.algorithm = "iexact"  # type: ignore[misc]

    def test_hashable(self):
        assert len({EncodeOptions(), EncodeOptions(),
                    EncodeOptions(algorithm="iexact")}) == 2

    @pytest.mark.parametrize("bad", [
        {"algorithm": "nope"},
        {"effort": "max"},
        {"cache": "disk"},
        {"nbits": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            EncodeOptions(**bad)

    def test_seed_must_be_int(self):
        with pytest.raises(TypeError, match="unhashable"):
            EncodeOptions(seed=random.Random(0))  # type: ignore[arg-type]

    def test_replace_revalidates(self):
        o = EncodeOptions()
        assert o.replace(algorithm="iexact").algorithm == "iexact"
        assert o.algorithm == "ihybrid"  # original untouched
        with pytest.raises(ValueError):
            o.replace(algorithm="nope")

    def test_dict_round_trip(self):
        o = EncodeOptions(algorithm="igreedy", nbits=4, seed=3)
        assert EncodeOptions.from_dict(o.to_dict()) == o
        with pytest.raises(ValueError, match="unknown EncodeOptions"):
            EncodeOptions.from_dict({"algorithm": "ihybrid", "bogus": 1})

    def test_algorithm_lists_agree(self):
        from repro.encoding import nova

        assert tuple(nova.ALGORITHMS) == tuple(ALGORITHMS)
        assert "auto" in CACHE_POLICIES


class TestFingerprintFields:
    def test_cache_policy_excluded(self):
        a = EncodeOptions(cache="on")
        b = EncodeOptions(cache="off")
        assert a.fingerprint_fields() == b.fingerprint_fields()

    def test_seed_included(self):
        assert (EncodeOptions(seed=1).fingerprint_fields()
                != EncodeOptions(seed=2).fingerprint_fields())

    def test_storable(self):
        assert EncodeOptions().storable
        assert EncodeOptions(timeout=5.0).storable  # fill-gated at runtime
        assert not EncodeOptions(algorithm="random").storable
        assert EncodeOptions(algorithm="random", seed=1).storable


class TestMerge:
    """encode_fsm takes keywords or ``options=``, and never merges them."""

    @staticmethod
    def _options_passed(monkeypatch, *args, **kwargs):
        from repro.encoding import nova

        seen = []
        monkeypatch.setattr(nova, "_cached_encode",
                            lambda fsm, opts: seen.append(opts))
        encode_fsm(benchmark("lion"), *args, **kwargs)
        return seen[0]

    def test_kwargs_only(self, monkeypatch):
        o = self._options_passed(monkeypatch, "iexact", nbits=3)
        assert o == EncodeOptions(algorithm="iexact", nbits=3)

    def test_options_only(self, monkeypatch):
        base = EncodeOptions(algorithm="iexact")
        assert self._options_passed(monkeypatch, options=base) is base

    def test_kwarg_fills_default_field(self):
        # options= is taken whole: a keyword cannot fill one of its
        # default fields
        with pytest.raises(TypeError, match="not both"):
            encode_fsm(benchmark("lion"),
                       options=EncodeOptions(algorithm="iexact"), nbits=4)

    def test_kwarg_restating_same_value_ok(self, monkeypatch):
        # in the keyword shape, restating a default builds the same
        # (equal, same-hash) options as leaving it out
        o = self._options_passed(monkeypatch, "iexact", nbits=None,
                                 effort="full", fallback=True)
        assert o == EncodeOptions(algorithm="iexact")
        assert hash(o) == hash(EncodeOptions(algorithm="iexact"))

    def test_conflict_raises(self):
        # any keyword next to options= is refused, whether it restates
        # the same value or disagrees
        base = EncodeOptions(algorithm="iexact")
        for args, kwargs in ((("iexact",), {}), (("igreedy",), {}),
                             ((), {"effort": "full"})):
            with pytest.raises(TypeError, match="not both"):
                encode_fsm(benchmark("lion"), *args, options=base, **kwargs)

    def test_conflict_names_every_field(self):
        base = EncodeOptions(algorithm="iexact", effort="low")
        with pytest.raises(TypeError) as ei:
            encode_fsm(benchmark("lion"), "igreedy", options=base,
                       effort="full")
        assert "algorithm" in str(ei.value) and "effort" in str(ei.value)

    def test_non_options_rejected(self):
        with pytest.raises(TypeError, match="EncodeOptions"):
            encode_fsm(benchmark("lion"),
                       options={"algorithm": "iexact"})  # type: ignore


class TestEncodeFsmShim:
    def test_options_and_legacy_agree(self):
        fsm = benchmark("lion")
        legacy = encode_fsm(fsm, "igreedy", nbits=3)
        new = encode_fsm(fsm, options=EncodeOptions(algorithm="igreedy",
                                                    nbits=3))
        assert legacy.state_encoding == new.state_encoding
        assert legacy.area == new.area

    def test_conflicting_kwarg_and_options(self):
        fsm = benchmark("lion")
        with pytest.raises(TypeError, match="not both"):
            encode_fsm(fsm, "igreedy",
                       options=EncodeOptions(algorithm="iexact"))

    def test_removed_fields_rejected(self):
        # verify and evaluate left EncodeOptions in 2.0
        for name in ("verify", "evaluate"):
            with pytest.raises(TypeError, match=name):
                encode_fsm(benchmark("lion"), "ihybrid", **{name: False})

    def test_rng_keyword_is_gone(self):
        # stochastic runs take seed=; a live random.Random is rejected
        with pytest.raises(TypeError, match="rng"):
            encode_fsm(benchmark("lion"), "random", rng=random.Random(3))

    def test_unknown_algorithm_still_valueerror(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            encode_fsm(benchmark("lion"), "nope")

    def test_no_deprecation_warning_on_new_api(self, recwarn):
        encode_fsm(benchmark("lion"), "random", seed=1)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]
