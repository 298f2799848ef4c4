"""The benchmark observatory: specs, timing, trajectory, the gate.

Everything here runs without timing anything real: the timer takes an
injectable clock, :func:`repro.bench.run_sweep` takes a
``runner_factory``, and trajectory/gate tests build records by hand.
The one invariant worth stating up front: **an injected >20% slowdown
must trip ``nova bench gate --max-regress 20`` with exit code 1** —
that is the CI contract the whole subsystem exists to enforce.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro import bench
from repro.bench import (
    BenchRecord,
    SampleStats,
    SweepSpec,
    load_spec,
    mad_reject,
    measure,
    run_sweep,
    summarize,
)
from repro.bench.timing import best_of
from repro.cli import main as cli_main


# ----------------------------------------------------------------------
# shared builders
# ----------------------------------------------------------------------
def stats(mean, std=0.0, n=3):
    return SampleStats(mean=mean, std=std, min=mean, median=mean,
                       samples=n)


def record(suite, means, label="", schema=1, timestamp=None):
    """A BenchRecord with one unit per (key, mean) pair."""
    return BenchRecord(
        suite=suite,
        units={k: stats(m) for k, m in means.items()},
        schema=schema,
        label=label,
        timestamp=timestamp,
    )


class FakeClock:
    """A deterministic perf counter: the timer reads it twice per
    sample (open/close), so precompute the tick sequence that makes
    sample i measure exactly ``durations[i]``."""

    def __init__(self, durations):
        self.ticks = []
        t = 0.0
        for d in durations:
            self.ticks += [t, t + d]
            t += d

    def __call__(self):
        return self.ticks.pop(0)


# ----------------------------------------------------------------------
# timing: fake clock, no sleeps
# ----------------------------------------------------------------------
class TestTiming:
    def test_measure_returns_scripted_samples(self):
        clock = FakeClock([0.5, 0.25, 0.125])
        ran = []
        samples = measure(lambda: ran.append(1), repeats=3, warmup=2,
                          clock=clock)
        assert samples == [0.5, 0.25, 0.125]
        assert len(ran) == 5  # 2 warmup + 3 timed

    def test_measure_validates_counts(self):
        with pytest.raises(ValueError, match="repeats"):
            measure(lambda: None, repeats=0)
        with pytest.raises(ValueError, match="warmup"):
            measure(lambda: None, repeats=1, warmup=-1)

    def test_best_of_is_min_and_records_stats(self):
        clock = FakeClock([0.3, 0.1, 0.2])
        book = {}
        best = best_of(lambda: None, repeats=3, warmup=0, clock=clock,
                       stats=book, label="unit")
        assert best == pytest.approx(0.1)
        assert book["unit"]["min"] == pytest.approx(0.1)
        assert book["unit"]["samples"] == 3

    def test_mad_rejects_the_gc_pause(self):
        kept = mad_reject([1.0, 1.1, 0.9, 1.05, 50.0])
        assert 50.0 not in kept
        assert len(kept) == 4

    def test_mad_keeps_everything_under_three_samples(self):
        assert mad_reject([1.0, 99.0]) == [1.0, 99.0]

    def test_mad_keeps_everything_on_zero_spread(self):
        # a fake clock returning identical durations has MAD 0; nothing
        # may be dropped on a degenerate dispersion estimate
        assert mad_reject([2.0, 2.0, 2.0, 7.0]) == [2.0, 2.0, 2.0, 7.0]

    def test_mad_cut_is_scaled(self):
        # median 1.0, MAD 0.1 -> cut 3.5 * 1.4826 * 0.1 ~= 0.519:
        # 1.5 survives, 1.6 does not
        base = [0.9, 1.0, 1.1]
        assert 1.5 in mad_reject(base + [1.5])
        assert 1.6 not in mad_reject(base + [1.6])

    def test_summarize_population_stats(self):
        s = summarize([1.0, 2.0, 3.0], reject_outliers=False)
        assert s.mean == 2.0
        assert s.median == 2.0
        assert s.min == 1.0
        assert s.std == pytest.approx(math.sqrt(2.0 / 3.0))
        assert s.samples == 3 and s.rejected == 0

    def test_summarize_counts_rejections(self):
        s = summarize([1.0, 1.1, 0.9, 50.0])
        assert s.rejected == 1
        assert s.samples == 3
        assert s.mean == pytest.approx(1.0)

    def test_summarize_refuses_zero_samples(self):
        with pytest.raises(ValueError, match="zero samples"):
            summarize([])

    def test_sample_stats_round_trip(self):
        s = summarize([0.1, 0.2, 0.3])
        again = SampleStats.from_dict(s.to_dict())
        assert again.mean == pytest.approx(s.mean)
        assert again.std == pytest.approx(s.std)
        assert (again.min, again.median) == \
            (pytest.approx(s.min), pytest.approx(s.median))
        assert (again.samples, again.rejected) == (3, 0)
        assert set(s.to_dict()) == {"mean", "std", "min", "median",
                                    "samples", "rejected"}


# ----------------------------------------------------------------------
# sweep specs: validation and round-trips
# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_minimal_encode_spec(self):
        spec = SweepSpec(name="s", machines=("lion",))
        assert spec.kind == "encode"
        assert spec.cache == "off"  # timing must opt *in* to caching

    @pytest.mark.parametrize("kwargs,needle", [
        (dict(name=""), "name"),
        (dict(name="s", machines=("a",), kind="race"), "kind"),
        (dict(name="s"), "exactly one"),
        (dict(name="s", machines=("a",), subset="small"), "exactly one"),
        (dict(name="s", machines=("a",), kind="table"), "table"),
        (dict(name="s", machines=("a",), table=3), "kind 'table'"),
        (dict(name="s", machines=("a",), algorithms=()), "algorithm"),
        (dict(name="s", machines=("a",), algorithms=("quantum",)),
         "quantum"),
        (dict(name="s", machines=("a",), repeats=0), "repeats"),
        (dict(name="s", machines=("a",), warmup=-1), "warmup"),
        (dict(name="s", machines=("a",), cache="maybe"), "cache"),
        (dict(name="s", machines=("a",), task_timeout=0), "task_timeout"),
        (dict(name="s", machines=("a",), seeds=(True,)), "seeds"),
    ])
    def test_eager_validation(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            SweepSpec(**kwargs)

    def test_unit_grid_without_seeds(self):
        spec = SweepSpec(name="s", machines=("a", "b"),
                         algorithms=("ihybrid", "kiss"))
        keys = [u[0] for u in spec.units()]
        assert keys == ["a/ihybrid", "a/kiss", "b/ihybrid", "b/kiss"]

    def test_unit_grid_with_seeds(self):
        spec = SweepSpec(name="s", machines=("a",),
                         algorithms=("random",), seeds=(1, 2))
        assert [u[0] for u in spec.units()] == ["a/random/s1",
                                                "a/random/s2"]
        assert spec.units()[0][3] == 1

    def test_units_machine_override(self):
        spec = SweepSpec(name="s", subset="small")
        assert [u[0] for u in spec.units(["x"])] == ["x/ihybrid"]

    def test_round_trip_via_dict(self):
        spec = SweepSpec(name="s", machines=("a",), seeds=(3,),
                         options={"effort": "low"}, repeats=5)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="machnes"):
            SweepSpec.from_dict({"name": "s", "machnes": ["a"]})

    def test_load_spec_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"name": "s", "machines": ["lion"],
                                 "repeats": 2}), encoding="utf-8")
        spec = load_spec(p)
        assert spec.machines == ("lion",) and spec.repeats == 2

    def test_load_spec_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        p = tmp_path / "s.toml"
        p.write_text('name = "s"\nmachines = ["lion"]\nwarmup = 0\n',
                     encoding="utf-8")
        assert load_spec(p).warmup == 0

    def test_load_spec_rejects_other_formats(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text("name: s\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported"):
            load_spec(p)

    def test_checked_in_specs_parse(self):
        # the observatory's own suite definitions must stay loadable
        from pathlib import Path
        spec_dir = Path(__file__).parent.parent / "benchmarks" / "specs"
        names = set()
        for path in sorted(spec_dir.glob("*.json")):
            names.add(load_spec(path).name)
        assert {"substrate", "table3", "table6", "table7"} <= names


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
class TestBenchRecord:
    def test_round_trip(self):
        r = record("substrate", {"lion/ihybrid": 0.5}, label="PR9",
                   timestamp=1000.0)
        again = BenchRecord.from_dict(r.to_dict())
        assert again.suite == "substrate"
        assert again.units["lion/ihybrid"].mean == 0.5
        assert again.label == "PR9" and again.timestamp == 1000.0

    def test_from_dict_tolerates_unknown_keys_and_defaults_schema_0(self):
        r = BenchRecord.from_dict({"suite": "x", "units": {},
                                   "future_field": 1})
        assert r.schema == 0

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            record("s", {"u": 1.0}, schema=bench.SCHEMA_VERSION + 1)

    def test_schema1_requires_units(self):
        with pytest.raises(ValueError, match="unit"):
            BenchRecord(suite="s", units={})
        # schema 0 (legacy) may be sparse
        assert BenchRecord(suite="s", units={}, schema=0).schema == 0

    def test_environment_capture_names_interpreter_and_version(self):
        env = bench.capture_environment()
        assert "python" in env and "repro_version" in env
        # the cover kernels are pure python: no backend to record
        assert "substrate" not in env


# ----------------------------------------------------------------------
# trajectory store + comparison
# ----------------------------------------------------------------------
class TestTrajectory:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "traj.json"
        bench.append_record(path, record("s", {"u": 1.0}, label="a"))
        history = bench.append_record(path, record("s", {"u": 0.5},
                                                   label="b"))
        assert [r.label for r in history] == ["a", "b"]
        assert [r.label for r in bench.load_trajectory(path)] == ["a", "b"]

    def test_load_missing_is_empty(self, tmp_path):
        assert bench.load_trajectory(tmp_path / "absent.json") == []

    def test_load_rejects_non_trajectory_files(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("[1]", encoding="utf-8")
        with pytest.raises(ValueError, match="records"):
            bench.load_trajectory(p)

    def test_load_rejects_newer_trajectory_schema(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"schema": bench.TRAJECTORY_SCHEMA + 1,
                                 "records": []}), encoding="utf-8")
        with pytest.raises(ValueError, match="newer"):
            bench.load_trajectory(p)

    def test_compare_statuses(self):
        assert bench.compare_suite([], "s").status == "no-record"
        only = [record("s", {"u": 1.0})]
        assert bench.compare_suite(only, "s").status == "no-baseline"

    def test_compare_speedup_and_geomean(self):
        history = [record("s", {"a": 2.0, "b": 1.0}, label="old"),
                   record("s", {"a": 1.0, "b": 2.0}, label="new")]
        comp = bench.compare_suite(history, "s")
        assert comp.status == "ok"
        assert comp.unit_speedups == {"a": 2.0, "b": 0.5}
        # ratios: a 2x win exactly cancels a 2x loss
        assert comp.geomean_speedup == pytest.approx(1.0)
        assert comp.baseline_label == "old"
        assert comp.current_label == "new"

    def test_compare_skips_disjoint_baselines(self):
        history = [record("s", {"x": 1.0}, label="renamed-away"),
                   record("s", {"u": 1.0}, label="mid"),
                   record("s", {"u": 2.0}, label="new")]
        comp = bench.compare_suite(history, "s")
        assert comp.baseline_label == "mid"
        assert comp.unit_speedups["u"] == 0.5

    def test_legacy_schema0_records_are_never_baselines(self):
        history = [record("s", {"u": 1.0}, schema=0, label="legacy"),
                   record("s", {"u": 99.0}, label="live")]
        assert bench.compare_suite(history, "s").status == "no-baseline"

    def test_gate_pass_and_regress_boundary(self):
        def verdict(cur_mean):
            hist = [record("substrate", {"u": 1.0}),
                    record("substrate", {"u": cur_mean})]
            return bench.gate(hist, 20.0, suites=("substrate",))

        assert verdict(1.19).ok            # 0.84x, above the 0.80 floor
        assert not verdict(1.30).ok        # 0.77x: regression
        assert verdict(1.30).regressions == ("substrate",)

    def test_gate_reports_missing_baselines(self):
        result = bench.gate([record("substrate", {"u": 1.0})], 20.0,
                            suites=("substrate", "table3"))
        assert result.ok  # missing is the caller's policy, not a failure
        assert set(result.missing) == {"substrate", "table3"}

    def test_gate_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="max_regress_pct"):
            bench.gate([], -1.0)


# ----------------------------------------------------------------------
# run_sweep against a fake runner (no subprocesses, no timing)
# ----------------------------------------------------------------------
class FakeReport:
    def __init__(self, entries):
        self.entries = entries


class FakeRunner:
    """Stands in for BatchRunner: replays scripted per-task entries."""

    instances = []

    def __init__(self, tasks, run_dir, *, seconds=None, broken=(),
                 **kwargs):
        self.tasks = tasks
        self.run_dir = run_dir
        self.kwargs = kwargs
        self.seconds = seconds or {}
        self.broken = set(broken)
        FakeRunner.instances.append(self)

    def run(self):
        entries = []
        for t in self.tasks:
            unit = t.task_id.rsplit("@", 1)[0]
            if unit in self.broken:
                entries.append({"task": t.task_id, "status": "failed"})
                continue
            entries.append({
                "task": t.task_id,
                "status": "ok",
                "cache_hit": False,
                "record": {"seconds": self.seconds.get(unit, 1.0)},
                "attempts": [{"elapsed": self.seconds.get(unit, 1.0)}],
            })
        return FakeReport(entries)


def factory(**fake_kwargs):
    def make(tasks, run_dir, **kwargs):
        return FakeRunner(tasks, run_dir, **fake_kwargs, **kwargs)
    return make


class TestRunSweep:
    @pytest.fixture(autouse=True)
    def _fresh(self):
        FakeRunner.instances = []

    def test_compile_tasks_units_times_runs(self):
        spec = SweepSpec(name="s", machines=("a", "b"), repeats=3,
                         warmup=1)
        tasks = bench.compile_tasks(spec)
        assert len(tasks) == 2 * (3 + 1)
        ids = [t.task_id for t in tasks]
        assert "a/ihybrid@w0" in ids and "a/ihybrid@r2" in ids
        # encode tasks carry the spec's cache policy into the worker
        assert all(t.options["cache"] == "off" for t in tasks)

    def test_sweep_summarizes_per_unit(self, tmp_path):
        spec = SweepSpec(name="s", machines=("a", "b"), repeats=3)
        rec = run_sweep(spec, tmp_path / "run", timestamp=123.0,
                        label="PR9",
                        runner_factory=factory(
                            seconds={"a/ihybrid": 0.25, "b/ihybrid": 2.0}))
        assert rec.suite == "s"
        assert rec.units["a/ihybrid"].mean == 0.25
        assert rec.units["a/ihybrid"].samples == 3
        assert rec.timestamp == 123.0 and rec.label == "PR9"

    def test_sweep_pins_retries_zero_and_force(self, tmp_path):
        # the degradation ladder must never time a different algorithm
        # under the unit's name, and cached journals must not be reused
        spec = SweepSpec(name="s", machines=("a",))
        run_sweep(spec, tmp_path / "run", runner_factory=factory())
        kwargs = FakeRunner.instances[0].kwargs
        assert kwargs["retries"] == 0
        assert kwargs["force"] is True

    def test_warmup_tasks_are_run_but_never_sampled(self, tmp_path):
        spec = SweepSpec(name="s", machines=("a",), repeats=2, warmup=3)
        rec = run_sweep(spec, tmp_path / "run", runner_factory=factory())
        assert len(FakeRunner.instances[0].tasks) == 5
        assert rec.units["a/ihybrid"].samples == 2

    def test_failed_samples_dropped_and_counted(self, tmp_path):
        spec = SweepSpec(name="s", machines=("a", "b"), repeats=2)
        rec = run_sweep(spec, tmp_path / "run",
                        runner_factory=factory(broken={"b/ihybrid"}))
        assert "b/ihybrid" not in rec.units
        assert rec.notes["dropped_samples"] == {"b/ihybrid": 2}

    def test_all_failed_raises(self, tmp_path):
        spec = SweepSpec(name="s", machines=("a",))
        with pytest.raises(ValueError, match="no usable samples"):
            run_sweep(spec, tmp_path / "run",
                      runner_factory=factory(broken={"a/ihybrid"}))

    def test_limit_caps_machines_and_is_recorded(self, tmp_path):
        spec = SweepSpec(name="s", machines=("a", "b", "c"))
        lines = []
        rec = run_sweep(spec, tmp_path / "run", limit=2,
                        progress=lines.append, runner_factory=factory())
        assert set(rec.units) == {"a/ihybrid", "b/ihybrid"}
        assert rec.notes["machines_dropped_by_limit"] == 1
        assert rec.spec["limit"] == 2
        assert any("dropped" in line for line in lines)

    def test_repeats_override_recorded_in_spec_snapshot(self, tmp_path):
        spec = SweepSpec(name="s", machines=("a",), repeats=5)
        rec = run_sweep(spec, tmp_path / "run", repeats=2,
                        runner_factory=factory())
        assert rec.units["a/ihybrid"].samples == 2
        assert rec.spec["repeats"] == 2

    def test_table_sweep_forces_cache_env_and_restores(
            self, tmp_path, monkeypatch):
        import os
        monkeypatch.setenv("NOVA_CACHE", "on")
        seen = {}

        def snooping(tasks, run_dir, **kwargs):
            seen["cache"] = os.environ.get("NOVA_CACHE")
            return FakeRunner(tasks, run_dir, **kwargs)

        spec = SweepSpec(name="t", kind="table", table=3,
                         machines=("a",), cache="off")
        run_sweep(spec, tmp_path / "run", runner_factory=snooping)
        # the spec's policy reached the (spawned) workers via the env...
        assert seen["cache"] == "off"
        # ...and the caller's environment came back untouched
        assert os.environ["NOVA_CACHE"] == "on"


# ----------------------------------------------------------------------
# the CLI: exit codes are the CI contract
# ----------------------------------------------------------------------
class TestBenchCli:
    def test_gate_passes_on_steady_trajectory(self, tmp_path, capsys):
        traj = tmp_path / "t.json"
        bench.save_trajectory(traj, [record("substrate", {"u": 1.00}),
                                     record("substrate", {"u": 1.02})])
        rc = cli_main(["bench", "gate", "--trajectory", str(traj),
                       "--max-regress", "20", "--suites", "substrate"])
        assert rc == 0
        assert "pass" in capsys.readouterr().out

        # records appended while the environment still named a
        # substrate load, compare and gate against fresh ones
        old = record("substrate", {"u": 1.00}).to_dict()
        old["environment"] = {"python": "3.11.7", "substrate": "python"}
        fresh = dataclasses.replace(
            record("substrate", {"u": 1.02}),
            environment=bench.capture_environment())
        traj.write_text(json.dumps({"schema": bench.TRAJECTORY_SCHEMA,
                                    "records": [old, fresh.to_dict()]}),
                        encoding="utf-8")
        loaded = bench.load_trajectory(traj)
        assert loaded[0].environment["substrate"] == "python"
        assert bench.compare_suite(loaded, "substrate").status == "ok"
        rc = cli_main(["bench", "gate", "--trajectory", str(traj),
                       "--max-regress", "20", "--suites", "substrate"])
        assert rc == 0

    def test_gate_fails_on_injected_slowdown(self, tmp_path, capsys):
        # the acceptance scenario: >20% injected regression -> exit 1
        traj = tmp_path / "t.json"
        bench.save_trajectory(traj, [
            record("substrate", {"u": 1.0, "v": 1.0}),
            record("substrate", {"u": 1.4, "v": 1.3}),  # ~26% slower
        ])
        rc = cli_main(["bench", "gate", "--trajectory", str(traj),
                       "--max-regress", "20", "--suites", "substrate"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "FAIL" in out

    def test_gate_exit_3_when_baseline_required_and_missing(
            self, tmp_path, capsys):
        traj = tmp_path / "t.json"
        bench.save_trajectory(traj, [record("substrate", {"u": 1.0})])
        rc = cli_main(["bench", "gate", "--trajectory", str(traj),
                       "--require-baseline", "--suites",
                       "substrate,table3"])
        assert rc == 3
        assert "no comparable baseline" in capsys.readouterr().err

    def test_gate_missing_baseline_passes_by_default(self, tmp_path):
        rc = cli_main(["bench", "gate", "--trajectory",
                       str(tmp_path / "empty.json")])
        assert rc == 0

    def test_run_usage_error_is_exit_2(self, capsys):
        assert cli_main(["bench", "run"]) == 2

    def test_run_invalid_spec_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "s", "machines": ["a"],
                                   "repeats": 0}), encoding="utf-8")
        rc = cli_main(["bench", "run", str(bad), "--trajectory",
                       str(tmp_path / "t.json")])
        assert rc == 2
        assert "repeats" in capsys.readouterr().err

    def test_compare_reports_geomean(self, tmp_path, capsys):
        traj = tmp_path / "t.json"
        bench.save_trajectory(traj, [record("s", {"u": 1.0}),
                                     record("s", {"u": 0.5})])
        rc = cli_main(["bench", "compare", "--trajectory", str(traj),
                       "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["geomean_speedup"] == pytest.approx(2.0)

    def test_committed_trajectory_passes_the_ci_gate(self):
        # the repo's own trajectory must satisfy the observatory job
        from pathlib import Path
        traj = Path(__file__).parent.parent / "BENCH_TRAJECTORY.json"
        if not traj.exists():
            pytest.skip("no committed trajectory yet")
        records = bench.load_trajectory(traj)
        result = bench.gate(records, 20.0)
        assert result.ok, f"committed trajectory regressed: {result.to_dict()}"
