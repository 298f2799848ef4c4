"""Tests for the top-level driver encode_fsm."""

import pytest

from repro.encoding.nova import encode_fsm
from repro.eval.area import pla_area
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

    def test_random_seed_deterministic(self):
        a = encode_fsm(benchmark("lion"), "random", seed=7)
        b = encode_fsm(benchmark("lion"), "random", seed=7)
        c = encode_fsm(benchmark("lion"), "random", seed=8)
        assert a.state_encoding.codes == b.state_encoding.codes
        assert (a.state_encoding.codes != c.state_encoding.codes
                or a.state_encoding.nbits != c.state_encoding.nbits)

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
        # the paper's 1-hot area: one product term per MV-minimized cube,
        # one PLA column per state and per symbolic value
        for name in ("lion", "bbtas", "lion9"):
            fsm = benchmark(name)
            encoded = encode_fsm(fsm, "ihybrid")
            ibits = (len(fsm.symbolic_input_values)
                     if fsm.has_symbolic_input else 0)
            onehot_area = pla_area(
                fsm.num_inputs + ibits, fsm.num_states,
                fsm.num_outputs + len(fsm.symbolic_output_values),
                encoded.mv_cover_size)
            assert encoded.area <= onehot_area, name


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


class TestSharedStages:
    """``shared_stages()`` reuses one machine's MV minimization across
    the encodes of a block, and nowhere else."""

    @staticmethod
    def _count_extractions(monkeypatch):
        from repro.encoding import nova

        calls = []
        real = nova.extract_input_constraints

        def counting(sc, *args, **kwargs):
            calls.append(sc.fsm)
            return real(sc, *args, **kwargs)

        monkeypatch.setattr(nova, "extract_input_constraints", counting)
        return calls

    def test_outside_a_scope_every_encode_extracts(self, monkeypatch):
        calls = self._count_extractions(monkeypatch)
        fsm = benchmark("lion")
        encode_fsm(fsm, "ihybrid")
        encode_fsm(fsm, "igreedy")
        assert calls == [fsm, fsm]

    def test_inside_a_scope_one_extraction_serves_every_encode(
            self, monkeypatch):
        from repro.encoding.nova import shared_stages

        calls = self._count_extractions(monkeypatch)
        fsm = benchmark("lion")
        alone = encode_fsm(fsm, "igreedy")
        with shared_stages():
            first = encode_fsm(fsm, "ihybrid")
            second = encode_fsm(fsm, "igreedy")
        assert calls == [fsm, fsm]  # alone, then once for the block
        assert second.state_encoding.codes == alone.state_encoding.codes
        assert (second.cubes, second.area) == (alone.cubes, alone.area)
        # the stage is charged to the encode that computed it
        assert "mv_min" in first.report.stage_seconds
        assert "mv_min" not in second.report.stage_seconds

    def test_equal_but_distinct_machine_gets_its_own_stages(
            self, monkeypatch):
        from repro.encoding.nova import shared_stages
        from repro.fsm.kiss import parse_kiss, to_kiss

        calls = self._count_extractions(monkeypatch)
        fsm = benchmark("lion")
        twin = parse_kiss(to_kiss(fsm), name=fsm.name)
        with shared_stages():
            encode_fsm(fsm, "ihybrid")
            encode_fsm(twin, "ihybrid")
        assert calls == [fsm, twin]

    def test_effort_is_part_of_the_key(self, monkeypatch):
        from repro.encoding.nova import shared_stages

        calls = self._count_extractions(monkeypatch)
        fsm = benchmark("lion")
        with shared_stages():
            encode_fsm(fsm, "ihybrid", effort="full")
            encode_fsm(fsm, "ihybrid", effort="low")
        assert len(calls) == 2

    def test_scope_does_not_reach_another_thread(self, monkeypatch):
        import threading

        from repro.encoding.nova import shared_stages

        calls = self._count_extractions(monkeypatch)
        fsm = benchmark("lion")
        errors = []

        def other():
            try:
                encode_fsm(fsm, "ihybrid")
                encode_fsm(fsm, "igreedy")
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        with shared_stages():
            encode_fsm(fsm, "ihybrid")
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert errors == []
        assert len(calls) == 3  # one for the block, two in the thread

    def test_armed_faults_disable_sharing(self, monkeypatch):
        from repro.encoding.nova import shared_stages
        from repro.perf.budget import BudgetExhausted
        from repro.testing import faults

        calls = self._count_extractions(monkeypatch)
        fsm = benchmark("lion")
        with shared_stages():
            with faults.inject(faults.Fault("mv_min", BudgetExhausted,
                                            times=1)) as plan:
                first = encode_fsm(fsm, "ihybrid")
                second = encode_fsm(fsm, "ihybrid")
        assert len(plan.fired) == 1
        assert first.report.degraded
        assert [e.algorithm for e in first.report.fallbacks] == ["ihybrid"]
        assert first.algorithm == "igreedy"
        assert not second.report.degraded
        assert second.algorithm == "ihybrid"
        # the faulted extraction stored nothing, and no encode reused
        # another's: ihybrid (tripped), igreedy, then the second encode
        assert len(calls) == 3

    def test_budget_checks_are_unchanged_by_sharing(self, monkeypatch):
        from repro.encoding.nova import shared_stages
        from repro.perf.budget import Budget

        checks = []
        real = Budget.check_time

        def counting(self):
            checks.append(self)
            return real(self)

        monkeypatch.setattr(Budget, "check_time", counting)
        fsm = benchmark("lion")
        encode_fsm(fsm, "ihybrid", timeout=600.0)
        alone = len(checks)
        with shared_stages():
            encode_fsm(fsm, "igreedy")
            del checks[:]
            encode_fsm(fsm, "ihybrid", timeout=600.0)
        # the post-extraction check still runs for the served encode
        assert len(checks) == alone
