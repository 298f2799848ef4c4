"""Tests for the perf counter/timer layer and the unified Budget."""

import time

import pytest

from repro import perf
from repro.logic import cover as cover_mod
from repro.logic.cover import from_strings
from repro.logic.cube import Format
from repro.logic.espresso import espresso
from repro.logic.urp import complement, tautology
from repro.perf.budget import Budget, BudgetExceeded


class TestPerfStats:
    def test_disabled_by_default(self):
        assert perf.STATS is None or perf.enabled()

    def test_collect_installs_and_restores(self):
        prev = perf.STATS
        with perf.collect() as stats:
            assert perf.STATS is stats
            assert perf.enabled()
        assert perf.STATS is prev

    def test_collect_nesting(self):
        with perf.collect() as outer:
            fmt = Format([2, 2])
            tautology(from_strings(fmt, ["- -"]))
            with perf.collect() as inner:
                tautology(from_strings(fmt, ["- -"]))
            tautology(from_strings(fmt, ["- -"]))
        assert outer.tautology_calls == 2
        assert inner.tautology_calls == 1

    def test_counters_move(self):
        fmt = Format([2, 2])
        f = from_strings(fmt, ["0 -", "1 0"])
        with perf.collect() as stats:
            tautology(f)
            complement(f)
        assert stats.tautology_calls == 1
        assert stats.complement_calls == 1
        assert stats.urp_recursions >= 2
        assert stats.urp_max_depth >= 1

    def test_timer_accumulates(self):
        with perf.collect() as stats:
            with perf.timer("block"):
                time.sleep(0.01)
            with perf.timer("block"):
                pass
        assert stats.timers["block"] >= 0.01

    def test_timer_noop_when_disabled(self):
        prev = perf.STATS
        try:
            perf.STATS = None
            with perf.timer("ignored"):
                pass
        finally:
            perf.STATS = prev

    def test_as_dict_and_summary(self):
        with perf.collect() as stats:
            stats.tautology_calls = 3
            stats.add_time("reduce", 0.5)
        d = stats.as_dict()
        assert d["tautology_calls"] == 3
        assert d["time_reduce"] == 0.5
        assert "tautology_calls" in stats.summary()

    def test_snapshot(self):
        assert perf.snapshot() is None or isinstance(perf.snapshot(), dict)
        with perf.collect():
            assert isinstance(perf.snapshot(), dict)

    def test_espresso_pass_counters(self):
        fmt = Format([2, 2, 2])
        on = from_strings(fmt, ["0 0 -", "0 1 -", "1 1 -"])
        with perf.collect() as stats:
            espresso(on)
        assert stats.espresso_passes >= 1
        assert stats.expand_cubes >= 1
        assert "espresso" in stats.timers


class TestContainsMemo:
    def setup_method(self):
        cover_mod.clear_contains_memo()

    def teardown_method(self):
        cover_mod.clear_contains_memo()

    def test_memo_hit_counted(self):
        fmt = Format([2, 2])
        f = from_strings(fmt, ["0 -", "1 -"])
        cube = fmt.cube_from_str("- -")
        with perf.collect() as stats:
            assert f.contains_cube(cube)
            assert f.contains_cube(cube)
        assert stats.contains_calls == 2
        assert stats.contains_memo_hits == 1

    def test_memo_keyed_on_cubes(self):
        fmt = Format([2, 2])
        f = from_strings(fmt, ["0 -", "1 -"])
        cube = fmt.cube_from_str("- -")
        assert f.contains_cube(cube)
        f.cubes = f.cubes[:1]  # mutate: the memo key changes with cubes
        assert not f.contains_cube(cube)

    def test_memo_capacity_reset(self):
        old = cover_mod._CONTAINS_MEMO_MAX
        cover_mod._CONTAINS_MEMO_MAX = 2
        try:
            fmt = Format([2, 2])
            f = from_strings(fmt, ["0 -", "1 -"])
            for s in ("- -", "0 -", "1 -", "- 0"):
                f.contains_cube(fmt.cube_from_str(s))
            assert len(cover_mod._contains_memo) <= 2
        finally:
            cover_mod._CONTAINS_MEMO_MAX = old

    def test_kill_switch(self):
        old = cover_mod.CONTAINS_MEMO
        cover_mod.CONTAINS_MEMO = False
        try:
            fmt = Format([2, 2])
            f = from_strings(fmt, ["0 -", "1 -"])
            cube = fmt.cube_from_str("- -")
            with perf.collect() as stats:
                f.contains_cube(cube)
                f.contains_cube(cube)
            assert stats.contains_memo_hits == 0
        finally:
            cover_mod.CONTAINS_MEMO = old


class TestBudget:
    def test_unbounded_never_raises(self):
        b = Budget()
        b.charge(10_000)
        assert not b.expired()

    def test_work_limit(self):
        b = Budget(work=5)
        b.charge(5)
        with pytest.raises(BudgetExceeded):
            b.charge()
        assert b.expired()

    def test_deadline(self):
        b = Budget(seconds=0.0)
        assert b.expired()
        with pytest.raises(BudgetExceeded):
            # polled every 256 charges, so charge enough to hit a poll
            for _ in range(512):
                b.charge()

    def test_bulk_charge_trips_where_unit_charges_do(self):
        # a bulk charge past the cap leaves the counter where the
        # tripping unit charge would, not at the overshoot
        for cap in (0, 1, 7, 20_000):
            for chunk in (1, 2, 3, 5, 64):
                unit, bulk = Budget(work=cap), Budget(work=cap)
                with pytest.raises(BudgetExceeded) as want:
                    while True:
                        unit.charge()
                with pytest.raises(BudgetExceeded) as got:
                    while True:
                        bulk.charge(chunk)
                assert bulk.work == unit.work == cap + 1
                assert got.value.work == want.value.work == cap + 1
        b = Budget(work=20_000)
        b.charge(19_998)
        with pytest.raises(BudgetExceeded):
            b.charge(6)
        assert b.work == 20_001

    def test_bulk_charge_polls_the_deadline_like_unit_charges(
            self, monkeypatch):
        from types import SimpleNamespace

        from repro.perf import budget as budget_mod

        now = [0.0]
        monkeypatch.setattr(budget_mod, "time",
                            SimpleNamespace(monotonic=lambda: now[0]))
        monkeypatch.setattr(budget_mod, "_TIME_CHECK_MASK", 3)

        def raises(start: int, charges) -> bool:
            now[0] = 0.0
            b = Budget(deadline=10.0)
            b.charge(start)
            now[0] = 11.0  # past the deadline from here on
            try:
                for n in charges:
                    b.charge(n)
            except BudgetExceeded as exc:
                assert exc.limit == "time"
                return True
            return False

        for start in range(6):
            for n in range(1, 12):
                # a poll falls due exactly when the work crosses a
                # multiple of 4, however the units are grouped
                crossed = (start + n) // 4 > start // 4
                assert raises(start, [1] * n) == crossed, (start, n)
                assert raises(start, [n]) == crossed, (start, n)

    def test_sub_shares_deadline_not_work(self):
        parent = Budget(seconds=100.0, work=1)
        child = parent.sub(work=10)
        assert child.deadline == parent.deadline
        child.charge(10)  # child has its own meter
        assert parent.work == 0
        with pytest.raises(BudgetExceeded):
            child.charge()

    def test_remaining_seconds(self):
        assert Budget().remaining_seconds() is None
        b = Budget(seconds=60.0)
        r = b.remaining_seconds()
        assert r is not None and 0 < r <= 60.0
