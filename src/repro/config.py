"""Unified runtime configuration: one validated choke point.

Every process-wide knob used to be its own scattered ``os.environ``
read — ``NOVA_CACHE`` in :mod:`repro.cache`, ``NOVA_PERF`` in
:mod:`repro.perf`, ``NOVA_BENCH_JOBS`` in the benchmarks conftest —
each with its own
parsing, its own validation (or none), and its own failure surface.
This module replaces them with a single frozen :class:`RuntimeConfig`
assembled from three layers, lowest precedence first:

1. **environment** — the ``NOVA_*`` variables of :data:`ENV_VARS`,
   which is also how a parent configures the workers it spawns;
2. **config file** — a JSON or TOML file named by ``$NOVA_CONFIG``,
   whose keys are exactly the :class:`RuntimeConfig` field names
   (unknown keys are rejected eagerly, not ignored);
3. **explicit argument** — an active :func:`config_scope` overlay,
   which is also the sanctioned way for tests to pin configuration
   without monkeypatching module internals.

Validation is eager and centralized: an unrecognized value raises
``ValueError`` naming the offending source (``NOVA_CACHE``, a file
key, or the scope argument) the moment the layer is read.  A user who
exported ``NOVA_CACHE=of`` meant *something*, and running with the
wrong cache policy would quietly change costs — or quietly reuse stale
results.

Consumers read *narrow* accessors (:func:`cache_policy`,
:func:`perf_enabled`, :func:`bench_jobs`, ...) so an import-time reader
like :mod:`repro.perf` only trips over errors in the field it needs;
long-lived entry points (``nova serve``, the CLI) call
:func:`get_config` once at startup to validate everything up front.
This module is a leaf: it imports nothing from :mod:`repro`, so every
subsystem (cache, perf, bench, sanitizer) can depend on it without
cycles, and it stays import-clean across the spawn boundary.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "CACHE_POLICIES",
    "CONFIG_FILE_VAR",
    "DEFAULT_CACHE_MAX_BYTES",
    "ENV_VARS",
    "RuntimeConfig",
    "bench_jobs",
    "cache_dir",
    "cache_max_bytes",
    "cache_policy",
    "config_scope",
    "get_config",
    "perf_enabled",
    "sanitize_enabled",
]

#: Resolved cache policies.  ``auto`` is an :class:`EncodeOptions`-level
#: request meaning "whatever the runtime config says"; it never appears
#: in a resolved config.
CACHE_POLICIES: Tuple[str, ...] = ("on", "off", "memory")

#: Disk-tier prune budget default (256 MiB) — the single source of
#: truth; :mod:`repro.cache.store` mirrors it for its constructor.
DEFAULT_CACHE_MAX_BYTES = 256 * 1024 * 1024

#: field name -> environment variable.
ENV_VARS: Dict[str, str] = {
    "cache": "NOVA_CACHE",
    "cache_dir": "NOVA_CACHE_DIR",
    "cache_max_bytes": "NOVA_CACHE_MAX_BYTES",
    "perf": "NOVA_PERF",
    "bench_jobs": "NOVA_BENCH_JOBS",
    "sanitize": "NOVA_SANITIZE",
}

#: Environment variable naming the optional config file.
CONFIG_FILE_VAR = "NOVA_CONFIG"

_ON_VALUES = ("1", "on", "true", "yes")
_OFF_VALUES = ("0", "off", "false", "no")


@dataclass(frozen=True)
class RuntimeConfig:
    """Immutable snapshot of every process-wide runtime knob.

    Fields
    ------
    cache:
        Resolved cache policy: ``on`` (both tiers), ``off`` (none) or
        ``memory`` (in-process LRU only).
    cache_dir:
        Disk-tier root, or ``None`` for the default ``~/.cache/nova``
        (resolve with :meth:`resolved_cache_dir`).
    cache_max_bytes:
        Disk-tier prune budget in bytes.
    perf:
        Whether a process-global perf collector starts installed.
    bench_jobs:
        Worker-process parallelism for ``nova table`` and benchmark
        sweeps.
    sanitize:
        Whether the crash-consistency sanitizer
        (:mod:`repro.testing.sanitize`) arms itself in test runs.
    """

    cache: str = "on"
    cache_dir: Optional[str] = None
    cache_max_bytes: int = DEFAULT_CACHE_MAX_BYTES
    perf: bool = False
    bench_jobs: int = 1
    sanitize: bool = False

    def __post_init__(self) -> None:
        _validate_cache(self.cache, "RuntimeConfig.cache")
        if not isinstance(self.cache_max_bytes, int) \
                or isinstance(self.cache_max_bytes, bool) \
                or self.cache_max_bytes < 0:
            raise ValueError(
                f"RuntimeConfig.cache_max_bytes must be a non-negative "
                f"integer byte count, got {self.cache_max_bytes!r}")
        if not isinstance(self.bench_jobs, int) \
                or isinstance(self.bench_jobs, bool) or self.bench_jobs < 1:
            raise ValueError(
                f"RuntimeConfig.bench_jobs must be a positive integer, "
                f"got {self.bench_jobs!r}")
        if not isinstance(self.perf, bool):
            raise ValueError(
                f"RuntimeConfig.perf must be a bool, got {self.perf!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise ValueError(
                f"RuntimeConfig.cache_dir must be a path string or None, "
                f"got {self.cache_dir!r}")
        if not isinstance(self.sanitize, bool):
            raise ValueError(
                f"RuntimeConfig.sanitize must be a bool, "
                f"got {self.sanitize!r}")

    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "RuntimeConfig":
        """A copy with *changes* applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (also a valid ``$NOVA_CONFIG`` file body)."""
        return dataclasses.asdict(self)

    def resolved_cache_dir(self) -> Path:
        """The disk-tier root with the ``~/.cache/nova`` default applied."""
        if self.cache_dir:
            return Path(self.cache_dir)
        return Path(os.path.expanduser("~")) / ".cache" / "nova"


# ----------------------------------------------------------------------
# per-field parsers (shared by the env shim and the config file)
# ----------------------------------------------------------------------
def _validate_cache(value: str, source: str) -> str:
    if value not in CACHE_POLICIES:
        raise ValueError(
            f"unrecognized {source} value {value!r}: use "
            f"on/off/memory (aliases: {'/'.join(_ON_VALUES)} for on, "
            f"{'/'.join(_OFF_VALUES)} for off); refusing to guess a policy")
    return value


def _parse_cache(raw: str, source: str) -> str:
    value = raw.strip().lower()
    if value in _OFF_VALUES:
        return "off"
    if value == "memory":
        return "memory"
    if value in _ON_VALUES:
        return "on"
    return _validate_cache(value, source)


def _parse_bool(raw: str, source: str) -> bool:
    value = raw.strip().lower()
    if value in _ON_VALUES:
        return True
    if value in _OFF_VALUES:
        return False
    raise ValueError(
        f"{source} must be a boolean "
        f"({'/'.join(_ON_VALUES)} or {'/'.join(_OFF_VALUES)}), "
        f"got {raw!r}")


def _parse_max_bytes(raw: str, source: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{source} must be an integer byte count, got {raw!r}") from None
    if value < 0:
        raise ValueError(
            f"{source} must be a non-negative integer byte count, "
            f"got {raw!r}")
    return value


def _parse_jobs(raw: str, source: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{source} must be a positive integer job count, "
            f"got {raw!r}") from None
    if value < 1:
        raise ValueError(
            f"{source} must be a positive integer job count, got {raw!r}")
    return value


def _parse_dir(raw: str, source: str) -> Optional[str]:
    return raw or None


_ENV_PARSERS: Dict[str, Callable[[str, str], Any]] = {
    "cache": _parse_cache,
    "cache_dir": _parse_dir,
    "cache_max_bytes": _parse_max_bytes,
    "perf": _parse_bool,
    "bench_jobs": _parse_jobs,
    "sanitize": _parse_bool,
}

# Blank-counts-as-unset applies to every variable except NOVA_CACHE_DIR,
# where the empty string already meant "use the default" historically.
_BLANK_IS_UNSET = frozenset(
    {"cache", "perf", "bench_jobs", "cache_max_bytes", "sanitize"})


# ----------------------------------------------------------------------
# layer 1: the environment
# ----------------------------------------------------------------------
def _env_field(field: str) -> Optional[Any]:
    """Parsed value of *field* from its env var, or ``None``."""
    var = ENV_VARS[field]
    raw = os.environ.get(var)
    if raw is None:
        return None
    if field in _BLANK_IS_UNSET and not raw.strip():
        return None
    return _ENV_PARSERS[field](raw, var)


# ----------------------------------------------------------------------
# layer 2: the $NOVA_CONFIG file (parsed once per path+mtime)
# ----------------------------------------------------------------------
_file_cache: Dict[Tuple[str, int], Dict[str, Any]] = {}


def _load_config_file(path: str) -> Dict[str, Any]:
    """Parse a JSON/TOML config file into *raw* values; memoized on mtime.

    Only structural problems raise here (unreadable file, broken
    syntax, not-an-object, unknown keys).  Field *values* are validated
    lazily in :func:`_file_field`, so a narrow accessor like
    :func:`perf_enabled` — consulted at import time by
    :mod:`repro.perf` — cannot be tripped by a bad value in an
    unrelated field; :func:`get_config` still validates every field
    eagerly at service boot.
    """
    try:
        stat = os.stat(path)
    except OSError:
        raise ValueError(
            f"{CONFIG_FILE_VAR} names an unreadable config file: "
            f"{path!r}") from None
    key = (os.path.abspath(path), stat.st_mtime_ns)
    cached = _file_cache.get(key)
    if cached is not None:
        return cached

    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py3.10 floor
            raise ValueError(
                f"{CONFIG_FILE_VAR} file {path!r} is TOML but this "
                f"python has no tomllib (3.11+); use JSON") from None
        with open(path, "rb") as fh:
            try:
                data = tomllib.load(fh)
            except tomllib.TOMLDecodeError as exc:
                raise ValueError(
                    f"invalid TOML in {CONFIG_FILE_VAR} file "
                    f"{path!r}: {exc}") from None
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"invalid JSON in {CONFIG_FILE_VAR} file "
                    f"{path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(
            f"{CONFIG_FILE_VAR} file {path!r} must hold one object of "
            f"RuntimeConfig fields, got {type(data).__name__}")

    known = {f.name for f in dataclasses.fields(RuntimeConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown RuntimeConfig keys in {CONFIG_FILE_VAR} file "
            f"{path!r}: {sorted(unknown)} (known: {sorted(known)})")
    _file_cache[key] = data
    return data


def _file_field(field: str) -> Optional[Any]:
    """One field's parsed, validated value from the config file."""
    path = os.environ.get(CONFIG_FILE_VAR)
    if not path or not path.strip():
        return None
    value = _load_config_file(path.strip()).get(field)
    if value is None:
        return None
    source = f"{CONFIG_FILE_VAR}:{field}"
    if isinstance(value, str) and field in _ENV_PARSERS \
            and field != "cache_dir":
        return _ENV_PARSERS[field](value, source)
    try:
        # field-local validation through the dataclass (type, range)
        RuntimeConfig(**{field: value})
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return value


# ----------------------------------------------------------------------
# layer 3: explicit scopes (tests, services, the CLI)
# ----------------------------------------------------------------------
_scope_stack: List[Dict[str, Any]] = []


@contextmanager
def config_scope(**overrides: Any) -> Iterator[RuntimeConfig]:
    """Pin configuration fields for the duration of the block.

    The sanctioned replacement for monkeypatching ``NOVA_*`` variables
    in tests: overrides take precedence over both the environment and
    any ``$NOVA_CONFIG`` file, nest (innermost wins per field), and are
    validated eagerly on entry.

    >>> with config_scope(cache="off", perf=False):
    ...     assert get_config().cache == "off"
    """
    known = {f.name for f in dataclasses.fields(RuntimeConfig)}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(
            f"unknown RuntimeConfig fields in config_scope: "
            f"{sorted(unknown)} (known: {sorted(known)})")
    parsed: Dict[str, Any] = {}
    for name, value in overrides.items():
        if isinstance(value, str) and name in _ENV_PARSERS \
                and name != "cache_dir":
            parsed[name] = _ENV_PARSERS[name](value, f"config_scope({name})")
        elif name == "cache_dir" and isinstance(value, Path):
            parsed[name] = str(value)
        else:
            parsed[name] = value
    _scope_stack.append(parsed)
    try:
        yield get_config()
    finally:
        _scope_stack.pop()


def _scope_field(field: str) -> Optional[Any]:
    for layer in reversed(_scope_stack):
        if field in layer:
            return layer[field]
    return None


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
def _resolve(field: str) -> Any:
    """One field through the precedence chain env < file < scope."""
    value = _scope_field(field)
    if value is None:
        value = _file_field(field)
    if value is None:
        value = _env_field(field)
    if value is None:
        default = next(f.default
                       for f in dataclasses.fields(RuntimeConfig)
                       if f.name == field)
        return default
    return value


def get_config() -> RuntimeConfig:
    """The fully-validated active configuration.

    Reads all three layers for every field, so any invalid value
    anywhere in the environment or config file raises here — this is
    the eager-validation entry point services call at boot
    (:class:`repro.server.EncodeService`).
    """
    return RuntimeConfig(**{
        f.name: _resolve(f.name)
        for f in dataclasses.fields(RuntimeConfig)
    })


# Narrow accessors: consult only their own field, so import-time
# readers (repro.perf) fail only on errors in the value they actually
# need.
def cache_policy(requested: str = "auto") -> str:
    """Resolved cache policy: ``on`` / ``off`` / ``memory``.

    An explicit *requested* policy stands; ``auto`` follows the
    configured ``cache`` field.
    """
    if requested != "auto":
        return requested
    value = _resolve("cache")
    return _validate_cache(value, ENV_VARS["cache"])


def cache_dir() -> Path:
    """The disk-tier root with the default applied."""
    value = _resolve("cache_dir")
    if value:
        return Path(value)
    return Path(os.path.expanduser("~")) / ".cache" / "nova"


def cache_max_bytes() -> int:
    """Disk-tier prune budget in bytes."""
    return int(_resolve("cache_max_bytes"))


def perf_enabled() -> bool:
    """Whether a process-global perf collector should start installed."""
    return bool(_resolve("perf"))


def bench_jobs() -> int:
    """Worker-process parallelism for ``nova table`` and sweeps."""
    return int(_resolve("bench_jobs"))


def sanitize_enabled() -> bool:
    """Whether the crash-consistency sanitizer arms in test runs."""
    return bool(_resolve("sanitize"))
