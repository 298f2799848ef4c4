"""The two cache tiers: an in-process LRU over an on-disk blob store.

**Memory tier** — a bounded ``OrderedDict`` holding decoded-ready
payload dicts.  It exists because a sweep or search loop re-encodes the
same machine many times within one process; a memory hit costs one dict
lookup and zero I/O.

**Disk tier** — one JSON blob per fingerprint under
``$NOVA_CACHE_DIR`` (default ``~/.cache/nova``), sharded by the first
two hex digits.  The store must stay correct under the batch runner's
concurrent spawn workers, so it follows the same discipline as the
PR 3 journal:

* *writes* go to a unique temp file in the destination directory, are
  fsync'd, then published with ``os.replace`` — readers observe either
  the old blob, the new blob, or nothing, never a torn file.  Two
  workers racing on one key both write valid blobs for the same
  fingerprint; last-writer-wins is harmless because the content is
  identical by construction.
* *reads* tolerate everything: a missing file is a miss, an unreadable
  or unparseable file is a miss that additionally **quarantines** the
  blob (renamed to ``*.corrupt``) so it cannot waste a parse on every
  subsequent lookup and remains on disk for inspection.

The disk tier is size-bounded: when the shard tree exceeds
``max_bytes`` (``$NOVA_CACHE_MAX_BYTES``, default 256 MiB), a prune
pass deletes blobs oldest-mtime-first until under budget.  A prune is
triggered opportunistically every :data:`PRUNE_EVERY` writes, and on
demand via ``nova cache prune``.
"""

from __future__ import annotations

from collections import OrderedDict
import json
import os
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro import perf
from repro.config import DEFAULT_CACHE_MAX_BYTES as DEFAULT_MAX_BYTES

DEFAULT_MEMORY_ENTRIES = 128
PRUNE_EVERY = 64
BLOB_SUFFIX = ".json"
QUARANTINE_SUFFIX = ".corrupt"


class MemoryLRU:
    """Bounded least-recently-used map of fingerprint -> payload dict."""

    def __init__(self, max_entries: int = DEFAULT_MEMORY_ENTRIES) -> None:
        self.max_entries = max(1, int(max_entries))
        self._data: "OrderedDict[str, Dict]" = OrderedDict()

    def get(self, key: str) -> Optional[Dict]:
        payload = self._data.get(key)
        if payload is not None:
            self._data.move_to_end(key)
        return payload

    def put(self, key: str, payload: Dict) -> None:
        self._data[key] = payload
        self._data.move_to_end(key)
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)

    def discard(self, key: str) -> None:
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class DiskStore:
    """Sharded one-blob-per-key JSON store with atomic publication."""

    def __init__(self, root: Path, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self._puts = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{BLOB_SUFFIX}"

    # ------------------------------------------------------------------
    def get(self, key: str) -> Tuple[Optional[Dict], int]:
        """(payload, bytes read); corrupt blobs quarantine and miss."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None, 0
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except (ValueError, UnicodeDecodeError):
            self.quarantine(key)
            return None, 0
        return payload, len(raw)

    def put(self, key: str, payload: Dict) -> int:
        """Atomically publish *payload* under *key*; return bytes written.

        Any OSError (full disk, permissions, a vanished cache dir) is
        swallowed: the cache is an accelerator, never a correctness
        dependency, so a failed fill silently degrades to recompute.
        """
        path = self.path_for(key)
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return 0
        self._puts += 1
        if self._puts % PRUNE_EVERY == 0:
            self.prune()
        return len(data)

    def discard(self, key: str) -> None:
        try:
            self.path_for(key).unlink()
        except OSError:
            pass

    def quarantine(self, key: str) -> None:
        """Move a corrupt blob aside (best effort, never raises)."""
        path = self.path_for(key)
        try:
            os.replace(path, path.with_suffix(QUARANTINE_SUFFIX))
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _blobs(self) -> Iterator[Tuple[Path, os.stat_result]]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob(f"*{BLOB_SUFFIX}")):
                try:
                    yield path, path.stat()
                except OSError:
                    continue

    def info(self) -> Dict:
        entries = 0
        total = 0
        for _, st in self._blobs():
            entries += 1
            total += st.st_size
        return {"dir": str(self.root), "entries": entries, "bytes": total,
                "max_bytes": self.max_bytes}

    def prune(self, max_bytes: Optional[int] = None) -> Dict:
        """Delete oldest blobs until the store fits in *max_bytes*."""
        budget = self.max_bytes if max_bytes is None else int(max_bytes)
        blobs = sorted(self._blobs(), key=lambda e: (e[1].st_mtime, e[0]))
        total = sum(st.st_size for _, st in blobs)
        removed = removed_bytes = 0
        for path, st in blobs:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= st.st_size
            removed += 1
            removed_bytes += st.st_size
        return {"removed": removed, "removed_bytes": removed_bytes,
                "bytes": total}

    def clear(self) -> int:
        """Remove every blob (and quarantined file); return count removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for shard in list(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in list(shard.iterdir()):
                if path.suffix in (BLOB_SUFFIX, QUARANTINE_SUFFIX):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed


class EncodeCache:
    """Memory LRU in front of an optional disk store, with counters.

    ``hits``/``misses``/``stores`` are process-lifetime counters for
    ``cache_info()``; every event is also mirrored into the active
    :mod:`repro.perf` collector (``cache_hit``/``cache_miss``/
    ``cache_bytes``) so ``--stats`` and the bench JSON rows surface
    cache behaviour alongside the substrate counters.
    """

    def __init__(self, disk: Optional[DiskStore],
                 memory_entries: int = DEFAULT_MEMORY_ENTRIES) -> None:
        self.memory = MemoryLRU(memory_entries)
        self.disk = disk
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    def _count(self, hit: bool, nbytes: int = 0) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        stats = perf.STATS
        if stats is not None:
            if hit:
                stats.cache_hit += 1
            else:
                stats.cache_miss += 1
            stats.cache_bytes += nbytes

    def get(self, key: str) -> Tuple[Optional[Dict], Optional[str]]:
        """(payload, tier) — tier ``"memory"`` or ``"disk"`` (a disk hit
        is promoted into the memory tier) — or ``(None, None)``."""
        payload = self.memory.get(key)
        if payload is not None:
            self._count(hit=True)
            return payload, "memory"
        if self.disk is not None:
            payload, nbytes = self.disk.get(key)
            if payload is not None:
                self.bytes_read += nbytes
                self.memory.put(key, payload)
                self._count(hit=True, nbytes=nbytes)
                return payload, "disk"
        self._count(hit=False)
        return None, None

    def put(self, key: str, payload: Dict) -> None:
        self.memory.put(key, payload)
        nbytes = 0
        if self.disk is not None:
            nbytes = self.disk.put(key, payload)
            self.bytes_written += nbytes
        self.stores += 1
        stats = perf.STATS
        if stats is not None:
            stats.cache_bytes += nbytes

    def invalidate(self, key: str) -> None:
        """Drop *key* from both tiers (used after a decode failure)."""
        self.memory.discard(key)
        if self.disk is not None:
            self.disk.quarantine(key)

    def clear(self) -> Dict:
        self.memory.clear()
        removed = self.disk.clear() if self.disk is not None else 0
        return {"disk_removed": removed}

    def info(self) -> Dict:
        out: Dict = {
            "memory_entries": len(self.memory),
            "memory_max_entries": self.memory.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }
        out["disk"] = self.disk.info() if self.disk is not None else None
        return out
