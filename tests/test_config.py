"""The unified runtime configuration: layering and validation.

``repro.config`` replaced six scattered ``os.environ`` reads with one
precedence chain (env < ``$NOVA_CONFIG`` file < ``config_scope``).
These tests pin the contract the rest of the tree now leans on: every
layer validates eagerly and names its source, blank env vars count as
unset, and every ``NOVA_*`` variable routes to its field.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro import config
from repro.config import (
    CACHE_POLICIES,
    DEFAULT_CACHE_MAX_BYTES,
    ENV_VARS,
    RuntimeConfig,
    config_scope,
    get_config,
)


@pytest.fixture(autouse=True)
def _clean_config_env(monkeypatch):
    """Start from no NOVA_* configuration at all (the conftest autouse
    cache fixture exports NOVA_CACHE=off for hermeticity; these tests
    control the environment themselves)."""
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)
    monkeypatch.delenv(config.CONFIG_FILE_VAR, raising=False)


def write_config(tmp_path, monkeypatch, body, name="nova.json"):
    path = tmp_path / name
    if name.endswith(".toml"):
        path.write_text(body, encoding="utf-8")
    else:
        path.write_text(json.dumps(body), encoding="utf-8")
    monkeypatch.setenv(config.CONFIG_FILE_VAR, str(path))
    return path


# ----------------------------------------------------------------------
# defaults and the dataclass's own validation
# ----------------------------------------------------------------------
class TestRuntimeConfig:
    def test_defaults(self):
        cfg = RuntimeConfig()
        assert cfg.cache == "on"
        assert cfg.cache_dir is None
        assert cfg.cache_max_bytes == DEFAULT_CACHE_MAX_BYTES
        assert cfg.perf is False
        assert cfg.bench_jobs == 1

    def test_get_config_with_empty_environment_is_all_defaults(self):
        assert get_config() == RuntimeConfig()

    @pytest.mark.parametrize("field,bad", [
        ("cache", "sometimes"),
        ("cache_max_bytes", -1),
        ("cache_max_bytes", "1000"),
        ("bench_jobs", 0),
        ("bench_jobs", True),
        ("perf", "yes"),
        ("cache_dir", 42),
    ])
    def test_constructor_rejects_bad_fields(self, field, bad):
        with pytest.raises(ValueError):
            RuntimeConfig(**{field: bad})

    def test_replace_revalidates(self):
        cfg = RuntimeConfig()
        assert cfg.replace(cache="memory").cache == "memory"
        with pytest.raises(ValueError):
            cfg.replace(cache="maybe")

    def test_to_dict_round_trips_through_a_config_file(
            self, tmp_path, monkeypatch):
        cfg = RuntimeConfig(cache="memory", bench_jobs=3, perf=True)
        write_config(tmp_path, monkeypatch, cfg.to_dict())
        assert get_config() == cfg

    def test_resolved_cache_dir_default_and_explicit(self, tmp_path):
        assert RuntimeConfig().resolved_cache_dir().name == "nova"
        explicit = RuntimeConfig(cache_dir=str(tmp_path))
        assert explicit.resolved_cache_dir() == tmp_path


# ----------------------------------------------------------------------
# layer 1: the environment
# ----------------------------------------------------------------------
class TestEnvLayer:
    def test_each_legacy_var_still_routes(self, monkeypatch):
        monkeypatch.setenv("NOVA_CACHE", "memory")
        monkeypatch.setenv("NOVA_CACHE_DIR", "/tmp/somewhere")
        monkeypatch.setenv("NOVA_CACHE_MAX_BYTES", "1024")
        monkeypatch.setenv("NOVA_PERF", "1")
        monkeypatch.setenv("NOVA_BENCH_JOBS", "4")
        cfg = get_config()
        assert cfg == RuntimeConfig(cache="memory",
                                    cache_dir="/tmp/somewhere",
                                    cache_max_bytes=1024, perf=True,
                                    bench_jobs=4)

    def test_unset_vars_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert get_config() == RuntimeConfig()

    @pytest.mark.parametrize("alias,expect", [
        ("1", "on"), ("true", "on"), ("ON", "on"), ("yes", "on"),
        ("0", "off"), ("no", "off"), ("False", "off"),
        ("memory", "memory"),
    ])
    def test_cache_aliases(self, monkeypatch, alias, expect):
        monkeypatch.setenv("NOVA_CACHE", alias)
        assert config.cache_policy() == expect
        assert expect in CACHE_POLICIES

    def test_blank_env_var_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("NOVA_CACHE", "  ")
        monkeypatch.setenv("NOVA_BENCH_JOBS", "")
        assert get_config() == RuntimeConfig()

    @pytest.mark.parametrize("var,raw", [
        ("NOVA_CACHE", "of"),
        ("NOVA_CACHE_MAX_BYTES", "many"),
        ("NOVA_CACHE_MAX_BYTES", "-5"),
        ("NOVA_PERF", "maybe"),
        ("NOVA_BENCH_JOBS", "0"),
        ("NOVA_BENCH_JOBS", "two"),
    ])
    def test_bad_env_values_raise_and_name_the_variable(
            self, monkeypatch, var, raw):
        monkeypatch.setenv(var, raw)
        with pytest.raises(ValueError, match=var):
            get_config()

    def test_narrow_accessor_ignores_other_fields_errors(
            self, monkeypatch):
        """An import-time reader of one knob must not trip over another
        knob's garbage — that's the point of the narrow accessors."""
        monkeypatch.setenv("NOVA_CACHE_MAX_BYTES", "garbage")
        assert config.perf_enabled() is False    # unaffected
        assert config.bench_jobs() == 1          # unaffected
        with pytest.raises(ValueError):
            config.cache_max_bytes()             # its own error
        with pytest.raises(ValueError):
            get_config()                         # eager full check


# ----------------------------------------------------------------------
# layer 2: the $NOVA_CONFIG file
# ----------------------------------------------------------------------
class TestFileLayer:
    def test_json_file_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOVA_CACHE", "on")
        write_config(tmp_path, monkeypatch, {"cache": "memory"})
        assert config.cache_policy() == "memory"

    def test_toml_file(self, tmp_path, monkeypatch):
        pytest.importorskip("tomllib")
        write_config(tmp_path, monkeypatch,
                     'cache = "off"\nbench_jobs = 2\n', name="nova.toml")
        cfg = get_config()
        assert cfg.cache == "off" and cfg.bench_jobs == 2

    def test_fields_not_in_file_fall_through_to_env(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOVA_BENCH_JOBS", "5")
        write_config(tmp_path, monkeypatch, {"cache": "off"})
        cfg = get_config()
        assert cfg.cache == "off" and cfg.bench_jobs == 5

    def test_unknown_keys_rejected(self, tmp_path, monkeypatch):
        # a typo, a key that named the removed cover-kernel backend, and
        # the removed benchmark slice and row-timeout fields
        for body in ({"cache_polcy": "off"}, {"substrate": "python"},
                     {"bench_set": "small"}, {"bench_task_timeout": 60}):
            (key,) = body
            write_config(tmp_path, monkeypatch, body, name=f"{key}.json")
            with pytest.raises(ValueError, match=f"unknown.*{key}"):
                get_config()

    def test_bad_value_names_file_key(self, tmp_path, monkeypatch):
        write_config(tmp_path, monkeypatch, {"perf": "maybe"})
        with pytest.raises(ValueError, match="NOVA_CONFIG:perf"):
            get_config()

    def test_missing_file_is_an_eager_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(config.CONFIG_FILE_VAR,
                           str(tmp_path / "absent.json"))
        with pytest.raises(ValueError, match="NOVA_CONFIG"):
            get_config()

    def test_invalid_json_is_an_eager_error(self, tmp_path, monkeypatch):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        monkeypatch.setenv(config.CONFIG_FILE_VAR, str(path))
        with pytest.raises(ValueError, match="invalid JSON"):
            get_config()

    def test_non_object_file_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        monkeypatch.setenv(config.CONFIG_FILE_VAR, str(path))
        with pytest.raises(ValueError, match="one object"):
            get_config()

    def test_narrow_accessor_unaffected_by_other_fields_file_errors(
            self, tmp_path, monkeypatch):
        """A bad *cache* value in the file must not break the
        import-time perf_enabled() read (repro.perf); only get_config
        and the cache accessors may trip on it."""
        write_config(tmp_path, monkeypatch, {"cache": "sideways",
                                             "perf": True})
        assert config.perf_enabled() is True
        with pytest.raises(ValueError, match="NOVA_CONFIG:cache"):
            config.cache_policy()
        with pytest.raises(ValueError, match="NOVA_CONFIG:cache"):
            get_config()

    def test_native_file_values_validated_per_field(
            self, tmp_path, monkeypatch):
        write_config(tmp_path, monkeypatch, {"cache_max_bytes": -5})
        with pytest.raises(ValueError, match="NOVA_CONFIG:cache_max_bytes"):
            config.cache_max_bytes()

    def test_file_does_not_trigger_deprecation_warnings(
            self, tmp_path, monkeypatch):
        write_config(tmp_path, monkeypatch, {"cache": "memory",
                                             "bench_jobs": 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cfg = get_config()
        assert cfg.cache == "memory"


# ----------------------------------------------------------------------
# layer 3: config_scope, and the full precedence chain
# ----------------------------------------------------------------------
class TestScopeLayer:
    def test_scope_beats_file_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOVA_CACHE", "on")          # lowest
        write_config(tmp_path, monkeypatch, {"cache": "memory"})
        assert config.cache_policy() == "memory"    # file > env
        with config_scope(cache="off"):
            assert config.cache_policy() == "off"   # scope > file
        assert config.cache_policy() == "memory"    # restored

    def test_scopes_nest_innermost_wins_per_field(self):
        with config_scope(cache="off", bench_jobs=3):
            with config_scope(cache="memory"):
                cfg = get_config()
                assert cfg.cache == "memory"
                assert cfg.bench_jobs == 3       # from the outer scope
            assert get_config().cache == "off"

    def test_scope_yields_the_active_config(self):
        with config_scope(perf=True) as cfg:
            assert cfg.perf is True

    def test_scope_validates_eagerly(self):
        with pytest.raises(ValueError, match="config_scope"):
            with config_scope(cache="sideways"):
                pass  # pragma: no cover - must not be reached

    def test_scope_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="cache_policy"):
            with config_scope(cache_policy="off"):
                pass  # pragma: no cover - must not be reached

    def test_scope_unwinds_on_exception(self):
        with pytest.raises(RuntimeError):
            with config_scope(cache="off"):
                raise RuntimeError("boom")
        assert get_config().cache == "on"

    def test_scope_accepts_path_cache_dir(self, tmp_path):
        with config_scope(cache_dir=tmp_path):
            assert config.cache_dir() == tmp_path


# ----------------------------------------------------------------------
# the consumers actually route through the config module
# ----------------------------------------------------------------------
class TestConsumers:
    def test_cache_policy_resolution_uses_config(self):
        from repro.cache import get_cache
        with config_scope(cache="memory"):
            assert config.cache_policy("auto") == "memory"
            assert get_cache("auto").disk is None
        # explicit EncodeOptions policies still win over the config
        with config_scope(cache="off"):
            assert config.cache_policy("on") == "on"
            assert get_cache("auto") is None

    def test_bench_discover_uses_config(self, tmp_path):
        # a sweep without --jobs runs as wide as the config's bench_jobs
        from repro.bench import SweepSpec, run_sweep

        widths = []

        class Report:
            entries = [{"task": "a/ihybrid@r0", "status": "ok",
                        "record": {"seconds": 1.0}}]

        class Runner:
            def __init__(self, tasks, run_dir, jobs, **kwargs):
                widths.append(jobs)

            def run(self):
                return Report()

        spec = SweepSpec(name="s", machines=("a",), repeats=1, warmup=0)
        with config_scope(bench_jobs=7):
            rec = run_sweep(spec, tmp_path / "run", runner_factory=Runner)
        assert widths == [7] and rec.spec["jobs"] == 7

    def test_perf_enabled_routes_through_config(self):
        with config_scope(perf=True):
            assert config.perf_enabled() is True
        assert config.perf_enabled() is False
