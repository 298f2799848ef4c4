"""Tests for the ``nova lint`` static-analysis subsystem.

Three layers: the engine (suppressions, NV000, JSON shape), each rule
against a bad/clean fixture pair under ``tests/fixtures/lint/``, and
the self-check — the shipping tree must lint clean, and reverting a
checked invariant in a copy of the real sources must trip the linter.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    REGISTRY,
    default_config,
    instantiate_rules,
    lint_paths,
    parse_suppressions,
)
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ALL_RULES = ("NV001", "NV002", "NV003", "NV004", "NV005", "NV006",
             "NV007", "NV008", "NV009", "NV010")


def lint_tree(root):
    return lint_paths([root], display_root=Path(root))


class TestRegistry:
    def test_ships_at_least_six_rules(self):
        assert set(ALL_RULES) <= set(REGISTRY)
        assert len(REGISTRY) >= 6

    def test_every_rule_has_a_title(self):
        for rule in instantiate_rules():
            assert rule.title, rule.id

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError, match="NV999"):
            instantiate_rules(["NV999"])


class TestFixtures:
    def test_bad_tree_trips_every_rule(self):
        result = lint_tree(FIXTURES / "bad")
        assert not result.ok
        tripped = {f.rule for f in result.findings}
        assert tripped == set(ALL_RULES)

    def test_clean_tree_passes(self):
        result = lint_tree(FIXTURES / "clean")
        assert result.ok, [f.render() for f in result.findings]
        assert result.files >= 6

    def test_findings_name_file_and_line(self):
        result = lint_tree(FIXTURES / "bad")
        # findings are sorted by path: keep the first per rule so the
        # mapping is deterministic even when a fixture trips a second
        # rule incidentally (the raw shard write in runner/steal.py is
        # also an NV003 atomic-write violation, by design)
        by_rule = {}
        for f in result.findings:
            by_rule.setdefault(f.rule, f)
        assert by_rule["NV001"].path.endswith("encoding/options.py")
        assert "'timeout'" in by_rule["NV001"].message
        assert by_rule["NV002"].path.endswith("encoding/iexact.py")
        assert by_rule["NV003"].path.endswith("cache/store.py")
        assert by_rule["NV004"].path.endswith("encoding/igreedy.py")
        assert by_rule["NV005"].path.endswith("encoding/onehot.py")
        assert by_rule["NV006"].path.endswith("runner/worker.py")
        assert by_rule["NV007"].path.endswith("runner/steal.py")
        assert by_rule["NV008"].path.endswith("server/handler.py")
        assert by_rule["NV009"].path.endswith("server/resources.py")
        assert by_rule["NV010"].path.endswith("bench/env.py")
        for f in result.findings:
            assert f.line >= 1
            assert f.message

    def test_nv007_catches_all_five_shapes(self):
        result = lint_tree(FIXTURES / "bad")
        messages = [f.message for f in result.findings
                    if f.rule == "NV007"]
        assert len(messages) == 5
        assert any("None-guard" in m for m in messages)
        assert any("heartbeat" in m for m in messages)
        assert any("ordering comparison" in m for m in messages)
        assert any("half the fencing key" in m for m in messages)
        assert any("raw write" in m for m in messages)

    def test_nv008_blocking_and_unbounded_awaits(self):
        result = lint_tree(FIXTURES / "bad")
        messages = [f.message for f in result.findings
                    if f.rule == "NV008"]
        assert len(messages) == 3
        assert any("no deadline" in m for m in messages)
        assert any("coroutine 'handle'" in m for m in messages)
        # the sync helper is flagged through the call graph
        assert any("reachable from a coroutine" in m for m in messages)

    def test_nv008_to_thread_reference_is_not_an_edge(self):
        # the clean handler hands render_page (containing time.sleep)
        # to asyncio.to_thread by *reference*: no call edge, no finding
        result = lint_tree(FIXTURES / "clean")
        assert not [f for f in result.findings if f.rule == "NV008"]

    def test_nv009_slot_and_handle_shapes(self):
        result = lint_tree(FIXTURES / "bad")
        messages = [f.message for f in result.findings
                    if f.rule == "NV009"]
        assert len(messages) == 2
        assert any("acquire()" in m for m in messages)
        assert any("leaks the handle" in m for m in messages)

    def test_nv010_resolves_key_through_constant(self):
        result = lint_tree(FIXTURES / "bad")
        hits = [f for f in result.findings if f.rule == "NV010"]
        assert len(hits) == 2
        # one read hides the key behind a module constant; the
        # dataflow layer resolves it anyway
        assert any("NOVA_BENCH_SET" in f.message for f in hits)
        assert any("NOVA_CACHE" in f.message for f in hits)

    def test_nv004_catches_all_three_shapes(self):
        result = lint_tree(FIXTURES / "bad")
        messages = [f.message for f in result.findings if f.rule == "NV004"]
        assert len(messages) == 3
        assert any("bare" in m for m in messages)
        assert any("swallows" in m for m in messages)
        assert any("ValueError" in m for m in messages)

    def test_rules_subset_only_runs_those(self):
        rules = instantiate_rules(["NV005"])
        result = lint_paths([FIXTURES / "bad"], rules=rules,
                            display_root=FIXTURES / "bad")
        assert {f.rule for f in result.findings} == {"NV005"}


class TestSuppressions:
    def write(self, tmp_path, rel, source):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return tmp_path

    def test_inline_suppression_with_reason(self, tmp_path):
        root = self.write(tmp_path, "encoding/onehot.py", (
            "import time\n"
            "def f():\n"
            "    return time.time()"
            "  # nova-lint: disable=NV005 -- wall clock wanted here\n"
        ))
        result = lint_tree(root)
        assert result.ok
        assert result.suppressed == 1

    def test_standalone_suppression_covers_next_code_line(self, tmp_path):
        root = self.write(tmp_path, "encoding/onehot.py", (
            "import time\n"
            "def f():\n"
            "    # nova-lint: disable=NV005 -- wall clock wanted here,\n"
            "    # with a justification spanning two comment lines\n"
            "    return time.time()\n"
        ))
        result = lint_tree(root)
        assert result.ok
        assert result.suppressed == 1

    def test_standalone_suppression_covers_decorated_statement(
            self, tmp_path):
        # a directive above a decorator stack must cover the whole
        # decorated statement — here the violation sits in the SECOND
        # decorator, two lines below the comment, where the plain
        # next-line scope never reached
        root = self.write(tmp_path, "encoding/onehot.py", (
            "import functools\n"
            "import time\n"
            "# nova-lint: disable=NV005 -- decoration stamp is wall "
            "clock on purpose\n"
            "@functools.lru_cache(maxsize=None)\n"
            "@mark(stamp=time.time())\n"
            "def f():\n"
            "    return 1\n"
        ))
        result = lint_tree(root)
        assert result.ok, [f.render() for f in result.findings]
        assert result.suppressed == 1

    def test_decorated_coverage_does_not_bleed_past_the_statement(
            self, tmp_path):
        root = self.write(tmp_path, "encoding/onehot.py", (
            "import functools\n"
            "import time\n"
            "# nova-lint: disable=NV005 -- decoration stamp is wall "
            "clock on purpose\n"
            "@functools.lru_cache(maxsize=None)\n"
            "@mark(stamp=time.time())\n"
            "def f():\n"
            "    return 1\n"
            "def g():\n"
            "    return time.time()\n"
        ))
        result = lint_tree(root)
        # the decorator violation is covered; g's body (after the
        # decorated statement) is not
        assert [f.rule for f in result.findings] == ["NV005"]
        assert result.findings[0].line == 9

    def test_suppression_without_reason_is_rejected(self, tmp_path):
        root = self.write(tmp_path, "encoding/onehot.py", (
            "import time\n"
            "def f():\n"
            "    return time.time()  # nova-lint: disable=NV005\n"
        ))
        result = lint_tree(root)
        rules = sorted(f.rule for f in result.findings)
        # the finding survives AND the directive itself is flagged
        assert rules == ["NV000", "NV005"]

    def test_suppression_for_other_rule_does_not_cover(self, tmp_path):
        root = self.write(tmp_path, "encoding/onehot.py", (
            "import time\n"
            "def f():\n"
            "    return time.time()  # nova-lint: disable=NV002 -- nope\n"
        ))
        result = lint_tree(root)
        assert [f.rule for f in result.findings] == ["NV005"]

    def test_unknown_rule_id_in_directive(self, tmp_path):
        root = self.write(tmp_path, "encoding/onehot.py", (
            "x = 1  # nova-lint: disable=NV42 -- typo'd id\n"
        ))
        result = lint_tree(root)
        assert [f.rule for f in result.findings] == ["NV000"]
        assert "NV42" in result.findings[0].message

    def test_parse_suppressions(self):
        sups = parse_suppressions(
            "a = 1  # nova-lint: disable=NV001,NV002 -- because\n"
            "# nova-lint: disable=NV003 -- standalone\n"
            "b = 2\n"
        )
        assert len(sups) == 2
        assert sups[0].rules == ("NV001", "NV002")
        assert sups[0].reason == "because"
        assert not sups[0].standalone
        assert sups[1].standalone

    def test_unparseable_file_is_a_finding(self, tmp_path):
        root = self.write(tmp_path, "encoding/broken.py", "def f(:\n")
        result = lint_tree(root)
        assert [f.rule for f in result.findings] == ["NV000"]
        assert "could not parse" in result.findings[0].message


class TestSelfCheck:
    """The shipping tree holds its own invariants."""

    def test_src_repro_is_lint_clean(self):
        result = lint_paths([REPO_SRC])
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert result.files > 50

    def test_every_suppression_in_tree_has_a_reason(self):
        for path in sorted(REPO_SRC.rglob("*.py")):
            for sup in parse_suppressions(path.read_text()):
                assert sup.reason, f"{path}:{sup.line} lacks a reason"

    def test_removing_fingerprint_field_is_caught(self, tmp_path):
        source = (REPO_SRC / "encoding" / "options.py").read_text()
        needle = "if f.name not in NON_FINGERPRINT_FIELDS"
        assert needle in source
        broken = source.replace(
            needle, needle + '\n            and f.name != "seed"')
        target = tmp_path / "encoding" / "options.py"
        target.parent.mkdir(parents=True)
        target.write_text(broken)
        result = lint_tree(tmp_path)
        hits = [f for f in result.findings if f.rule == "NV001"]
        assert hits, "dropping 'seed' from the fingerprint went unnoticed"
        assert "'seed'" in hits[0].message
        assert hits[0].path.endswith("encoding/options.py")
        assert hits[0].line >= 1

    def test_deleting_budget_tick_is_caught(self, tmp_path):
        source = (REPO_SRC / "encoding" / "iexact.py").read_text()
        assert "        tick()\n" in source
        broken = source.replace("        tick()\n", "", 1)
        target = tmp_path / "encoding" / "iexact.py"
        target.parent.mkdir(parents=True)
        target.write_text(broken)
        result = lint_tree(tmp_path)
        hits = [f for f in result.findings if f.rule == "NV002"]
        assert hits, "deleting a budget tick went unnoticed"
        assert hits[0].path.endswith("encoding/iexact.py")
        assert hits[0].line >= 1

    def test_deleting_lease_heartbeat_is_caught(self, tmp_path):
        # revert detection: a claim loop that stops heartbeating would
        # look dead to every peer, so its tasks get stolen mid-run
        source = (REPO_SRC / "runner" / "batch.py").read_text()
        needle = "renewed = leases.heartbeat(a.lease)"
        assert needle in source
        broken = source.replace(needle, "renewed = a.lease", 1)
        target = tmp_path / "runner" / "batch.py"
        target.parent.mkdir(parents=True)
        target.write_text(broken)
        result = lint_tree(tmp_path)
        hits = [f for f in result.findings if f.rule == "NV007"]
        assert hits, "deleting the lease heartbeat went unnoticed"
        assert "heartbeat" in hits[0].message
        assert hits[0].path.endswith("runner/batch.py")
        assert hits[0].line >= 1

    def test_blocking_call_in_coroutine_is_caught(self, tmp_path):
        source = (REPO_SRC / "server" / "app.py").read_text()
        needle = ("t0 = time.monotonic()\n        try:\n"
                  "            method, path")
        assert needle in source
        broken = source.replace(
            needle,
            "t0 = time.monotonic()\n        time.sleep(0.01)\n"
            "        try:\n            method, path", 1)
        target = tmp_path / "server" / "app.py"
        target.parent.mkdir(parents=True)
        target.write_text(broken)
        result = lint_tree(tmp_path)
        hits = [f for f in result.findings if f.rule == "NV008"]
        assert hits, "time.sleep in a coroutine went unnoticed"
        assert "time.sleep" in hits[0].message
        assert hits[0].path.endswith("server/app.py")
        assert hits[0].line >= 1

    def test_dropping_slot_release_is_caught(self, tmp_path):
        # revert detection: losing the finally-release leaks a slot on
        # every error path until the server stops admitting anyone
        source = (REPO_SRC / "server" / "admission.py").read_text()
        needle = "self._slots.release()"
        assert needle in source
        broken = source.replace(needle, "self._noop()", 1)
        target = tmp_path / "server" / "admission.py"
        target.parent.mkdir(parents=True)
        target.write_text(broken)
        result = lint_tree(tmp_path)
        hits = [f for f in result.findings if f.rule == "NV009"]
        assert hits, "dropping the slot release went unnoticed"
        assert hits[0].path.endswith("server/admission.py")
        assert hits[0].line >= 1

    def test_direct_env_read_is_caught(self, tmp_path):
        source = (REPO_SRC / "bench" / "sweep.py").read_text()
        needle = "config_mod.bench_jobs()"
        assert needle in source
        broken = source.replace(
            needle, 'int(os.environ.get("NOVA_BENCH_JOBS", "1"))', 1)
        target = tmp_path / "bench" / "sweep.py"
        target.parent.mkdir(parents=True)
        target.write_text(broken)
        result = lint_tree(tmp_path)
        hits = [f for f in result.findings if f.rule == "NV010"]
        assert hits, "a direct NOVA_* env read went unnoticed"
        assert "NOVA_BENCH_JOBS" in hits[0].message
        assert hits[0].path.endswith("bench/sweep.py")
        assert hits[0].line >= 1

    def test_default_config_scopes_every_rule(self):
        cfg = default_config()
        for rule_id in ("NV001", "NV002", "NV003", "NV005", "NV006",
                        "NV007", "NV008", "NV009"):
            assert cfg.rule_paths.get(rule_id)
        assert cfg.rule_paths.get("NV004-stages")
        # NV010 is deliberately unscoped: a NOVA_* env read is a policy
        # leak no matter which package it hides in
        assert "NV010" not in cfg.rule_paths
        assert cfg.config_modules == ("config.py",)

    def test_server_modules_are_in_scope(self):
        # nova serve spawns workers and raises over HTTP: the server
        # package must honour both the spawn-safety and the
        # raise-taxonomy invariants, service errors included
        cfg = default_config()
        assert "server/*.py" in cfg.rule_paths["NV006"]
        assert "server/*.py" in cfg.rule_paths["NV004-stages"]
        for name in ("ServiceError", "OverloadError", "DeadlineExceeded"):
            assert name in cfg.allowed_raises


class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "clean")]) == 0
        err = capsys.readouterr().err
        assert "0 finding(s)" in err

    def test_lint_bad_tree_exits_one(self, capsys):
        assert main(["lint", str(FIXTURES / "bad")]) == 1
        out = capsys.readouterr().out
        assert "NV001" in out
        assert "encoding/options.py" in out

    def test_lint_json_output(self, capsys):
        assert main(["lint", str(FIXTURES / "bad"), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files"] >= 6
        assert set(payload["counts"]) == set(ALL_RULES)
        assert set(payload["rules"]) == set(ALL_RULES)
        first = payload["findings"][0]
        assert {"rule", "path", "line", "col", "message",
                "severity"} <= set(first)

    def test_lint_rules_filter(self, capsys):
        assert main(["lint", str(FIXTURES / "bad"),
                     "--rules", "NV006", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["counts"]) == {"NV006"}

    def test_lint_unknown_rule_exits_two(self, capsys):
        assert main(["lint", str(FIXTURES / "bad"),
                     "--rules", "NV999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_lint_empty_rules_exits_two(self, capsys):
        # regression: '--rules " , "' used to select zero rules and
        # exit 0, silently passing a tree nothing had checked
        assert main(["lint", str(FIXTURES / "bad"),
                     "--rules", " , "]) == 2
        err = capsys.readouterr().err
        assert "selected no rules" in err
        for rule_id in ALL_RULES:
            assert rule_id in err

    def test_lint_explain_known_rule(self, capsys):
        assert main(["lint", "--explain", "NV007"]) == 0
        out = capsys.readouterr().out
        assert "NV007" in out
        assert "fencing" in out.lower()

    def test_lint_explain_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--explain", "NV042"]) == 2
        err = capsys.readouterr().err
        assert "NV042" in err
        assert "NV001" in err

    def test_lint_baseline_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "lint-baseline.json"
        assert main(["lint", str(FIXTURES / "bad"),
                     "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        payload = json.loads(baseline.read_text())
        assert payload["schema"] == 1
        assert payload["findings"]

        # every recorded finding is now tolerated: exit goes 1 -> 0
        assert main(["lint", str(FIXTURES / "bad"),
                     "--baseline", str(baseline), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["baselined"] == len(payload["findings"])

        # a novel finding still fails even under the baseline
        extra = tmp_path / "tree" / "encoding" / "late.py"
        extra.parent.mkdir(parents=True)
        extra.write_text("import time\n\n\ndef stamp():\n"
                         "    return time.time()\n")
        assert main(["lint", str(FIXTURES / "bad"), str(tmp_path / "tree"),
                     "--baseline", str(baseline), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in report["findings"]] == ["NV005"]

    def test_lint_update_baseline_requires_baseline(self, capsys):
        assert main(["lint", str(FIXTURES / "bad"),
                     "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_lint_without_paths_exits_two(self, capsys):
        assert main(["lint"]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULES:
            assert rule_id in out

    def test_real_tree_through_cli(self, capsys):
        assert main(["lint", str(REPO_SRC), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []
        # a clean tree still reports which rules ran: "no findings"
        # must be distinguishable from "nothing was checked"
        assert set(payload["rules"]) == set(ALL_RULES)
