"""Tests for the top-level driver encode_fsm."""

import random

import pytest

from repro.encoding.nova import encode_fsm
from repro.fsm.benchmarks import benchmark
from repro.fsm.machine import minimum_code_length


class TestEncodeFsm:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            encode_fsm(benchmark("lion"), "nope")

    @pytest.mark.parametrize("alg", ["ihybrid", "igreedy", "iohybrid",
                                     "iovariant", "kiss", "mustang"])
    def test_all_algorithms_on_lion(self, alg):
        r = encode_fsm(benchmark("lion"), alg)
        assert r.cubes > 0
        assert r.area == (2 * (2 + r.state_encoding.nbits)
                          + r.state_encoding.nbits + 1) * r.cubes
        assert len(set(r.state_encoding.codes)) == 4

    def test_random_uses_rng(self):
        # the deprecated rng= shim must keep working (with a warning)
        # and agree with the equivalent seed= call
        with pytest.deprecated_call():
            a = encode_fsm(benchmark("lion"), "random",
                           rng=random.Random(0))
        b = encode_fsm(benchmark("lion"), "random", seed=0)
        assert a.state_encoding.codes == b.state_encoding.codes

    def test_random_seed_deterministic(self):
        a = encode_fsm(benchmark("lion"), "random", seed=7)
        b = encode_fsm(benchmark("lion"), "random", seed=7)
        c = encode_fsm(benchmark("lion"), "random", seed=8)
        assert a.state_encoding.codes == b.state_encoding.codes
        assert (a.state_encoding.codes != c.state_encoding.codes
                or a.state_encoding.nbits != c.state_encoding.nbits)

    def test_onehot_fast_path(self):
        r = encode_fsm(benchmark("bbtas"), "onehot", evaluate=False)
        assert r.cubes == r.mv_cover_size
        assert r.state_encoding.nbits == 6
        assert r.pla is None

    def test_onehot_full_evaluation(self):
        r = encode_fsm(benchmark("lion"), "onehot")
        assert r.pla is not None
        assert r.state_encoding.nbits == 4

    def test_symbolic_machine_gets_symbol_encoding(self):
        r = encode_fsm(benchmark("dk27"), "ihybrid")
        assert r.symbol_encoding is not None
        assert r.bits == r.state_encoding.nbits + r.symbol_encoding.nbits

    def test_iexact_small_machine(self):
        # note: not every machine is iexact-feasible -- the paper itself
        # reports failures (tbk) -- but shiftreg's constraints embed
        r = encode_fsm(benchmark("shiftreg"), "iexact")
        assert r.cubes > 0
        assert r.state_encoding.nbits >= minimum_code_length(8)

    def test_iexact_triangle_constraints(self):
        # lion's MV constraints contain a pair-triangle, infeasible under
        # strict subposet equivalence; the engine's relaxed verification
        # (codes-based, per the §3.1 criterion) still embeds it at k=3
        r = encode_fsm(benchmark("lion"), "iexact")
        assert r.state_encoding.nbits == 3

    def test_bits_parameter_respected(self):
        r = encode_fsm(benchmark("lion9"), "ihybrid", nbits=5)
        assert r.state_encoding.nbits <= 5
        assert r.state_encoding.nbits >= minimum_code_length(9)

    def test_satisfied_weight_accounting(self):
        r = encode_fsm(benchmark("bbtas"), "ihybrid")
        assert r.satisfied_weight >= 0
        assert r.unsatisfied_weight >= 0

    def test_timing_recorded(self):
        r = encode_fsm(benchmark("lion"), "ihybrid")
        assert r.seconds > 0

    def test_mustang_options(self):
        for opt in ("p", "n", "pt", "nt"):
            r = encode_fsm(benchmark("train4"), "mustang",
                           mustang_option=opt)
            assert r.cubes > 0

    def test_low_effort_still_valid(self):
        r = encode_fsm(benchmark("bbtas"), "ihybrid", effort="low")
        assert r.cubes > 0


class TestQualityOrdering:
    """Directional claims of the paper on small machines."""

    def test_nova_beats_worst_random(self):
        for name in ("lion9", "bbtas", "train11"):
            nova = min(
                encode_fsm(benchmark(name), a).area
                for a in ("ihybrid", "igreedy", "iohybrid")
            )
            randoms = [encode_fsm(benchmark(name), "random", seed=s).area
                       for s in range(11, 16)]
            assert nova <= max(randoms), name

    def test_encoded_beats_onehot_area(self):
        for name in ("lion", "bbtas", "lion9"):
            fsm = benchmark(name)
            encoded = encode_fsm(fsm, "ihybrid")
            onehot = encode_fsm(fsm, "onehot", evaluate=False)
            assert encoded.area <= onehot.area, name


class TestExpiredDeadline:
    """A deadline already gone when re-minimization starts skips espresso
    (whose first expand+irredundant pass would run unbudgeted) and
    reports the raw encoded cover instead."""

    @staticmethod
    def _evaluate(monkeypatch, budget):
        import importlib

        from repro.encoding import nova
        from repro.encoding.onehot import onehot_code

        # the package re-exports a function under the module's name
        instantiate = importlib.import_module("repro.eval.instantiate")
        calls = []
        real = instantiate.espresso

        def counting(*args, **kwargs):
            calls.append(kwargs.get("budget"))
            return real(*args, **kwargs)

        monkeypatch.setattr(instantiate, "espresso", counting)
        fsm = benchmark("lion")
        report = nova.RunReport(machine=fsm.name,
                                requested_algorithm="onehot", timeout=1.0)
        pipe = nova._Pipeline(fsm, "full", report, budget)
        pla = nova._evaluate(pipe, onehot_code(fsm.num_states), None, None)
        return pla, report, calls

    def test_expired_budget_skips_espresso(self, monkeypatch):
        import time

        from repro.perf.budget import Budget

        expired = Budget(deadline=time.monotonic() - 1.0)
        pla, report, calls = self._evaluate(monkeypatch, expired)
        assert calls == []
        assert report.unminimized and report.degraded
        assert "re-minimization failed" in report.degradation_reason
        assert pla.num_cubes > 0

    def test_live_budget_still_minimizes(self, monkeypatch):
        from repro.perf.budget import Budget

        live = Budget(seconds=600.0)
        pla, report, calls = self._evaluate(monkeypatch, live)
        assert calls == [live]
        assert not report.unminimized and not report.degraded
