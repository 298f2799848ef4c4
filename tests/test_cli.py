"""Smoke tests for the nova CLI."""

import pytest

from repro.cli import main


class TestEncode:
    def test_encode_benchmark(self, capsys):
        assert main(["encode", "--benchmark", "lion"]) == 0
        out = capsys.readouterr().out
        assert "code length" in out
        assert "st0" in out

    def test_encode_symbolic_benchmark(self, capsys):
        assert main(["encode", "--benchmark", "dk27",
                     "--algorithm", "igreedy"]) == 0
        out = capsys.readouterr().out
        assert "input symbol codes" in out

    def test_encode_kiss_file(self, tmp_path, capsys):
        kiss = tmp_path / "m.kiss"
        kiss.write_text(".i 1\n.o 1\n0 a a 0\n1 a b 1\n0 b a 1\n1 b b 0\n")
        assert main(["encode", str(kiss)]) == 0
        assert "cubes" in capsys.readouterr().out

    def test_encode_without_source_fails(self, capsys):
        assert main(["encode"]) == 2

    def test_bits_option(self, capsys):
        assert main(["encode", "--benchmark", "lion9", "--bits", "5"]) == 0


class TestTable:
    def test_table1(self, capsys):
        assert main(["table", "1", "--subset", "small"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        # Table I's own set is paper30: its small machines, not lion
        assert "shiftreg" in out and "lion" not in out

    def test_unknown_table(self, capsys):
        assert main(["table", "9"]) == 2


class TestList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "shiftreg" in out and "scf" in out


class TestMinimize:
    def test_heuristic(self, tmp_path, capsys):
        pla = tmp_path / "f.pla"
        pla.write_text(".i 2\n.o 1\n00 1\n01 1\n11 1\n.e\n")
        assert main(["minimize", str(pla)]) == 0
        out = capsys.readouterr().out
        assert ".e" in out
        assert out.count("\n") < 10

    def test_exact(self, tmp_path, capsys):
        pla = tmp_path / "f.pla"
        pla.write_text(".i 2\n.o 1\n00 1\n01 1\n11 1\n.e\n")
        assert main(["minimize", "--exact", str(pla)]) == 0


class TestAnalyze:
    def test_benchmark(self, capsys):
        assert main(["analyze", "--benchmark", "lion9"]) == 0
        out = capsys.readouterr().out
        assert "reachable     : 9/9" in out
        assert "deterministic : True" in out

    def test_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main(["analyze", "--benchmark", "lion", "--dot",
                     str(dot)]) == 0
        assert dot.read_text().startswith("digraph")


class TestVerify:
    def test_verify_benchmark(self, capsys):
        assert main(["verify", "--benchmark", "lion",
                     "--algorithm", "igreedy"]) == 0
        assert "OK" in capsys.readouterr().out


class TestFailureBehavior:
    """Exit codes, --timeout/--no-fallback, and degradation summaries."""

    def test_parse_error_exit_code_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.kiss"
        bad.write_text(".i 1\n.o 1\n0 a a\n")  # truncated row
        assert main(["encode", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "ParseError" in err
        assert "Traceback" not in err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["encode", "/no/such/file.kiss"]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_fallback_maps_infeasible_to_exit_6(self, capsys):
        # lion9's constraints are iexact-infeasible under the default
        # caps; --no-fallback surfaces that as EncodingInfeasible
        assert main(["encode", "--benchmark", "lion9",
                     "--algorithm", "iexact", "--no-fallback"]) == 6
        err = capsys.readouterr().err
        assert "EncodingInfeasible" in err
        assert "Traceback" not in err

    def test_fallback_prints_degradation_summary(self, capsys):
        assert main(["encode", "--benchmark", "lion9",
                     "--algorithm", "iexact"]) == 0
        captured = capsys.readouterr()
        assert "degraded:" in captured.err
        assert captured.err.count("degraded:") == 1  # one line, no traceback
        assert "ihybrid" in captured.out  # the fallback that served

    def test_timeout_flag_degrades_not_crashes(self, capsys):
        assert main(["encode", "--benchmark", "bbtas",
                     "--algorithm", "ihybrid", "--timeout", "0.001"]) == 0
        assert "area" in capsys.readouterr().out

    def test_verified_line_printed(self, capsys):
        assert main(["encode", "--benchmark", "lion"]) == 0
        assert "verified   : True" in capsys.readouterr().out

    def test_budget_exhausted_exit_code_5(self, capsys):
        # deterministic: inject the exhaustion rather than racing a
        # real wall-clock deadline against a fast machine
        from repro.errors import BudgetExhausted
        from repro.testing import faults

        with faults.inject(faults.Fault("encode", BudgetExhausted,
                                        match={"algorithm": "ihybrid"})):
            assert main(["encode", "--benchmark", "bbtas", "--algorithm",
                         "ihybrid", "--no-fallback"]) == 5
        assert "BudgetExhausted" in capsys.readouterr().err


class TestCacheCommand:
    """nova cache info|clear|prune and the --cache/--seed encode flags."""

    @pytest.fixture(autouse=True)
    def _private_cache(self, tmp_path, monkeypatch):
        from repro import cache

        monkeypatch.setenv("NOVA_CACHE_DIR", str(tmp_path / "nova-cache"))
        cache.reset()
        yield
        cache.reset()

    def test_info_is_json(self, capsys):
        import json

        assert main(["cache", "info"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == 0 and info["bytes"] == 0
        assert "dir" in info and "max_bytes" in info

    def test_encode_cache_flag_round_trip(self, capsys):
        assert main(["encode", "--benchmark", "lion", "--cache", "on"]) == 0
        cold = capsys.readouterr().out
        assert "cache      : hit" not in cold
        assert main(["encode", "--benchmark", "lion", "--cache", "on"]) == 0
        warm = capsys.readouterr().out
        assert "cache      : hit" in warm
        # every non-provenance line is identical
        strip = lambda s: [l for l in s.splitlines()
                           if not l.startswith(("time ", "cache "))]
        assert strip(cold) == strip(warm)

    def test_clear_then_prune(self, capsys):
        import json

        assert main(["encode", "--benchmark", "lion", "--cache", "on"]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1
        assert main(["cache", "clear"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 1
        assert main(["cache", "prune", "--max-bytes", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 0

    def test_seed_flag(self, capsys):
        assert main(["encode", "--benchmark", "lion",
                     "--algorithm", "random", "--seed", "7"]) == 0
        a = capsys.readouterr().out
        assert main(["encode", "--benchmark", "lion",
                     "--algorithm", "random", "--seed", "7"]) == 0
        b = capsys.readouterr().out
        # the wall-clock line ("time       : 0.00s") is the only one
        # allowed to differ between two runs
        strip = lambda s: [l for l in s.splitlines()
                           if not l.startswith("time ")]
        assert strip(a) == strip(b)
