"""Content-addressed result cache for the encode pipeline.

The pipeline is deterministic for a fixed (machine, options, version)
tuple, so whole-pipeline results can be memoized under one SHA-256
fingerprint (:mod:`repro.cache.fingerprint`).  Two tiers back the
lookup (:mod:`repro.cache.store`): an in-process LRU for loops that
re-encode the same machine, and an on-disk blob store shared by every
process on the host — including the batch runner's spawned workers.

Policy resolution
-----------------
:func:`get_cache` maps an :class:`~repro.encoding.options.EncodeOptions`
``cache`` policy to a live cache (or ``None``):

* ``"off"`` — no cache at all;
* ``"memory"`` — the in-process LRU only, nothing touches disk;
* ``"on"`` — both tiers, rooted at :func:`cache_dir`;
* ``"auto"`` (the default) — follows the environment: ``NOVA_CACHE``
  set to ``0``/``off``/``false``/``no`` disables, ``memory`` keeps the
  LRU only, anything else (including unset) enables both tiers.

Configuration
-------------
Everything environmental routes through :mod:`repro.config` (the
unified :class:`~repro.config.RuntimeConfig`): the ``cache`` policy
consulted by ``auto``, the disk-tier root (default ``~/.cache/nova``)
and the prune budget (default 256 MiB), set by the ``NOVA_CACHE`` /
``NOVA_CACHE_DIR`` / ``NOVA_CACHE_MAX_BYTES`` variables, a
``$NOVA_CONFIG`` file or :func:`repro.config.config_scope`.

Read and fill
-------------
:func:`lookup` and :func:`store` are the only read and fill path: the
encode pipeline (``encode_fsm``), the batch runner's parent-side probe
and the encode service's warm path all go through them, so the tier
walk (:meth:`EncodeCache.get`), the quarantine of an undecodable
payload, the ``cache_hit`` mark and the rule that a result the
cooperative timeout degraded is never stored (:func:`cacheable`) are
written once, and every hit or miss reaches the :class:`EncodeCache`
and :mod:`repro.perf` counters.

The module-level :func:`cache_info` / :func:`cache_clear` /
:func:`cache_prune` back both the ``nova cache`` CLI and the
:mod:`repro.api` facade.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

from repro import config as config_mod
from repro.encoding.nova import NovaResult
from repro.encoding.options import EncodeOptions
from repro.fsm.machine import FSM

from repro.cache.codec import (
    PAYLOAD_VERSION,
    CacheDecodeError,
    decode_result,
    encode_pla,
    encode_result,
    make_payload,
)
from repro.cache.fingerprint import (
    FINGERPRINT_SCHEMA,
    canonical_fsm,
    canonical_options,
    fingerprint,
)
from repro.cache.store import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MEMORY_ENTRIES,
    DiskStore,
    EncodeCache,
    MemoryLRU,
)

__all__ = [
    "CacheDecodeError",
    "DiskStore",
    "EncodeCache",
    "MemoryLRU",
    "FINGERPRINT_SCHEMA",
    "PAYLOAD_VERSION",
    "cache_clear",
    "cache_dir",
    "cache_info",
    "cache_prune",
    "cacheable",
    "canonical_fsm",
    "canonical_options",
    "decode_result",
    "encode_pla",
    "encode_result",
    "fingerprint",
    "get_cache",
    "lookup",
    "make_payload",
    "reset",
    "store",
]

def cache_dir() -> Path:
    """The disk-tier root from the runtime config (``~/.cache/nova``)."""
    return config_mod.cache_dir()


def _max_bytes() -> int:
    return config_mod.cache_max_bytes()


# One live cache per (policy, root) so every encode_fsm call in a
# process shares the same memory tier and hit/miss counters.  The disk
# tier holds no open handles, so instances are cheap to keep around
# even when NOVA_CACHE_DIR changes mid-process (tests do this).
_CACHES: Dict[Tuple[str, Optional[str]], EncodeCache] = {}


def get_cache(policy: str = "auto") -> Optional[EncodeCache]:
    """The shared :class:`EncodeCache` for *policy*, or ``None`` (off)."""
    effective = config_mod.cache_policy(policy)
    if effective == "off":
        return None
    if effective == "memory":
        key = ("memory", None)
        if key not in _CACHES:
            _CACHES[key] = EncodeCache(disk=None)
        return _CACHES[key]
    root = cache_dir()
    key = ("on", str(root))
    cache = _CACHES.get(key)
    if cache is None:
        cache = EncodeCache(DiskStore(root, max_bytes=_max_bytes()))
        _CACHES[key] = cache
    elif cache.disk is not None:
        cache.disk.max_bytes = _max_bytes()
    return cache


def lookup(fsm: FSM, opts: EncodeOptions,
           key: Optional[str] = None) -> Optional[Tuple[NovaResult, str]]:
    """``(result, tier)`` for a cached run of *opts* on *fsm*, or ``None``.

    *tier* is ``"memory"`` or ``"disk"``; the result is marked
    ``report.cache_hit``.  A payload that does not decode for *fsm* is
    invalidated (dropped from memory, its blob quarantined) and counts
    as a miss, so a corrupt entry costs one recompute, never a wrong
    answer.  *key* defaults to :func:`fingerprint` of *fsm* and *opts*.
    """
    cache = get_cache(opts.cache)
    if cache is None:
        return None
    if key is None:
        key = fingerprint(fsm, opts)
    payload, tier = cache.get(key)
    if payload is None:
        return None
    try:
        result = decode_result(fsm, payload)
    except CacheDecodeError:
        cache.invalidate(key)
        return None
    if result.report is not None:
        result.report.cache_hit = True
    return result, tier


def cacheable(result: NovaResult) -> bool:
    """Whether *result* is a pure function of its fingerprint.

    A result the cooperative ``timeout`` degraded depends on where the
    budget fired (machine speed, load), so it is returned but never
    stored; a clean result under a timeout is the untimed answer and
    caches normally (the timeout is part of the key).
    """
    report = result.report
    return not (report is not None and report.timeout is not None
                and report.degraded)


def store(fsm: FSM, opts: EncodeOptions, result: NovaResult,
          key: Optional[str] = None) -> None:
    """Fill the cache with *result*, unless the rules forbid it.

    Nothing is stored for options that are not
    :attr:`~repro.encoding.options.EncodeOptions.storable` (an unseeded
    ``random`` run) or for a result that is not :func:`cacheable`.
    """
    if not (opts.storable and cacheable(result)):
        return
    cache = get_cache(opts.cache)
    if cache is None:
        return
    cache.put(fingerprint(fsm, opts) if key is None else key,
              encode_result(result))


def _cache_on() -> EncodeCache:
    """The always-on cache the module-level controls operate on."""
    cache = get_cache("on")
    assert cache is not None  # policy "on" never resolves to None
    return cache


def reset() -> None:
    """Drop every live cache instance (counters and memory tiers).

    Test isolation hook: nothing on disk is touched, but the next
    :func:`get_cache` re-reads the environment and starts cold.
    """
    _CACHES.clear()


# ----------------------------------------------------------------------
# module-level controls (the ``nova cache`` CLI and repro.api facade)
# ----------------------------------------------------------------------
def cache_info() -> Dict:
    """Counters and disk usage of the two-tier cache, JSON-safe.

    Disk-tier fields (``dir``/``entries``/``bytes``/``max_bytes``) are
    flattened to the top level so ``nova cache info`` output is a single
    simple JSON object.
    """
    cache = _cache_on()
    out = cache.info()
    disk = out.pop("disk", None) or {}
    out.update(disk)
    return out


def cache_clear() -> Dict:
    """Empty both tiers; returns ``{"removed": N}`` (disk blobs)."""
    cache = _cache_on()
    return {"removed": cache.clear()["disk_removed"]}


def cache_prune(max_bytes: Optional[int] = None) -> Dict:
    """Prune the disk tier to *max_bytes* (default: the configured cap)."""
    cache = _cache_on()
    if cache.disk is None:  # pragma: no cover - "on" always has a disk
        return {"removed": 0, "removed_bytes": 0, "bytes": 0}
    return cache.disk.prune(max_bytes)
