"""The content-addressed encode cache: keys, tiers, transparency.

The autouse ``_isolated_encode_cache`` fixture (conftest) forces the
``auto`` policy to *off* for the whole suite; every test here opts back
in explicitly with ``cache="on"`` plus a tmp ``NOVA_CACHE_DIR``.
"""

from __future__ import annotations

import importlib
import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

from repro import _version
from repro import cache as cache_mod
from repro import perf
from repro.cache.codec import CacheDecodeError, decode_result, encode_result
from repro.cache.store import DiskStore, MemoryLRU
from repro.encoding.nova import encode_fsm
from repro.encoding.options import EncodeOptions
from repro.fsm.benchmarks import benchmark, benchmark_names


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A private disk tier for one test; returns its root path."""
    root = tmp_path / "nova-cache"
    monkeypatch.setenv("NOVA_CACHE_DIR", str(root))
    cache_mod.reset()
    return root


def comparable(result):
    """A result's journal record minus provenance (the cache_hit flag).

    Timing fields are deliberately *kept*: a hit rehydrates the original
    run's seconds, so even those must match bit-for-bit.
    """
    rec = result.to_record()
    if rec["report"] is not None:
        rec["report"] = dict(rec["report"])
        rec["report"].pop("cache_hit")
    return rec


def comparable_untimed(result):
    """Like :func:`comparable` but with timing dropped, for comparing
    two independent *live* computes (where wall-clock always differs)."""
    rec = comparable(result)
    rec.pop("seconds", None)
    if rec["report"] is not None:
        rec["report"].pop("seconds", None)
        rec["report"].pop("stage_seconds", None)
    return rec


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable(self):
        fsm = benchmark("lion")
        o = EncodeOptions()
        assert cache_mod.fingerprint(fsm, o) == cache_mod.fingerprint(fsm, o)

    def test_machine_sensitive(self):
        o = EncodeOptions()
        assert (cache_mod.fingerprint(benchmark("lion"), o)
                != cache_mod.fingerprint(benchmark("lion9"), o))

    def test_options_sensitive(self):
        fsm = benchmark("lion")
        assert (cache_mod.fingerprint(fsm, EncodeOptions(algorithm="iexact"))
                != cache_mod.fingerprint(fsm, EncodeOptions()))
        assert (cache_mod.fingerprint(fsm, EncodeOptions(seed=1))
                != cache_mod.fingerprint(fsm, EncodeOptions(seed=2)))

    def test_cache_policy_not_in_key(self):
        fsm = benchmark("lion")
        assert (cache_mod.fingerprint(fsm, EncodeOptions(cache="on"))
                == cache_mod.fingerprint(fsm, EncodeOptions(cache="off")))

    def test_version_salt(self, monkeypatch):
        from repro import _version

        fsm = benchmark("lion")
        o = EncodeOptions()
        before = cache_mod.fingerprint(fsm, o)
        monkeypatch.setattr(_version, "__version__", "999.0.0")
        assert cache_mod.fingerprint(fsm, o) != before

    def test_code_salt_follows_the_source(self, tmp_path):
        # a copy of the encode-path packages digests like the package;
        # editing one module's text changes the digest
        fp = importlib.import_module("repro.cache.fingerprint")
        src = Path(fp.__file__).resolve().parents[1]
        for package in fp.ENCODE_PACKAGES:
            (tmp_path / package).mkdir()
            for path in (src / package).glob("*.py"):
                shutil.copy(path, tmp_path / package / path.name)
        assert fp.source_digest(str(tmp_path)) == fp.code_salt()
        module = tmp_path / "logic" / "espresso.py"
        module.write_text(module.read_text() + "\n# edited\n")
        assert fp.source_digest(str(tmp_path)) != fp.code_salt()

    def test_key_is_salted_with_the_code_not_only_the_version(
            self, monkeypatch):
        fp = importlib.import_module("repro.cache.fingerprint")
        fsm = benchmark("lion")
        o = EncodeOptions()
        before = cache_mod.fingerprint(fsm, o)
        salt = fp.code_salt()
        assert len(salt) == 64 and salt != _version.__version__
        monkeypatch.setattr(fp, "_code_salt", "0" * 64)
        assert cache_mod.fingerprint(fsm, o) != before

    def test_transition_order_matters(self):
        # KISS semantics are first-match: reordered rows are a
        # different machine and must not share a key
        fsm = benchmark("lion")
        import copy

        other = copy.deepcopy(fsm)
        other.transitions = list(reversed(other.transitions))
        o = EncodeOptions()
        assert cache_mod.fingerprint(fsm, o) != cache_mod.fingerprint(other, o)


# ----------------------------------------------------------------------
# tiers
# ----------------------------------------------------------------------
class TestMemoryLRU:
    def test_eviction_order(self):
        lru = MemoryLRU(max_entries=2)
        lru.put("a", {"v": 1})
        lru.put("b", {"v": 2})
        assert lru.get("a")  # refresh a
        lru.put("c", {"v": 3})
        assert lru.get("b") is None  # b was least recent
        assert lru.get("a") and lru.get("c")


class TestDiskStore:
    def test_round_trip_and_info(self, tmp_path):
        store = DiskStore(tmp_path)
        n = store.put("ab" + "0" * 62, {"x": 1})
        assert n > 0
        payload, nbytes = store.get("ab" + "0" * 62)
        assert payload == {"x": 1} and nbytes == n
        info = store.info()
        assert info["entries"] == 1 and info["bytes"] == n

    def test_missing_is_miss(self, tmp_path):
        assert DiskStore(tmp_path).get("ff" + "0" * 62) == (None, 0)

    def test_corrupt_blob_quarantined(self, tmp_path):
        store = DiskStore(tmp_path)
        key = "cd" + "0" * 62
        store.put(key, {"x": 1})
        store.path_for(key).write_bytes(b'{"x": 1')  # torn write
        assert store.get(key) == (None, 0)
        assert not store.path_for(key).exists()
        assert store.path_for(key).with_suffix(".corrupt").exists()

    def test_prune_oldest_first(self, tmp_path):
        store = DiskStore(tmp_path, max_bytes=0)
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"pad": "y" * 100})
            os.utime(store.path_for(key), (i, i))  # distinct mtimes
        out = store.prune(max_bytes=store.path_for(keys[0]).stat().st_size)
        assert out["removed"] == 2
        assert not store.path_for(keys[0]).exists()
        assert store.path_for(keys[2]).exists()

    def test_clear(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("ab" + "0" * 62, {"x": 1})
        assert store.clear() == 1
        assert store.info()["entries"] == 0


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_round_trip(self):
        fsm = benchmark("dk27")
        r = encode_fsm(fsm, "ihybrid")
        payload = json.loads(json.dumps(encode_result(r)))  # via JSON
        back = decode_result(fsm, payload)
        assert back.state_encoding == r.state_encoding
        assert back.symbol_encoding == r.symbol_encoding
        assert back.area == r.area and back.cubes == r.cubes
        assert back.pla.cover.cubes == r.pla.cover.cubes
        assert back.pla.cover.fmt.parts == r.pla.cover.fmt.parts
        assert comparable(back) == comparable(r)

    def test_wrong_machine_rejected(self):
        r = encode_fsm(benchmark("lion"), "ihybrid")
        with pytest.raises(CacheDecodeError, match="machine"):
            decode_result(benchmark("lion9"), encode_result(r))

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(v=999),
        lambda p: p.update(state_encoding=None),
        lambda p: p.update(cubes="not-an-int"),
        lambda p: p.pop("algorithm"),
    ])
    def test_malformed_payload_rejected(self, mutate):
        fsm = benchmark("lion")
        payload = encode_result(encode_fsm(fsm, "ihybrid"))
        mutate(payload)
        with pytest.raises(CacheDecodeError):
            decode_result(fsm, payload)

    def test_decoded_objects_are_fresh(self):
        fsm = benchmark("lion")
        payload = encode_result(encode_fsm(fsm, "ihybrid"))
        a = decode_result(fsm, payload)
        b = decode_result(fsm, payload)
        assert a.pla is not b.pla and a.report is not b.report


# ----------------------------------------------------------------------
# policy resolution
# ----------------------------------------------------------------------
class TestPolicy:
    def test_off_policy(self):
        assert cache_mod.get_cache("off") is None

    def test_memory_policy_no_disk(self):
        c = cache_mod.get_cache("memory")
        assert c is not None and c.disk is None

    def test_auto_follows_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NOVA_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("NOVA_CACHE", "off")
        assert cache_mod.get_cache("auto") is None
        monkeypatch.setenv("NOVA_CACHE", "memory")
        assert cache_mod.get_cache("auto").disk is None
        monkeypatch.delenv("NOVA_CACHE")
        assert cache_mod.get_cache("auto").disk is not None

    def test_shared_instance(self, cache_dir):
        assert cache_mod.get_cache("on") is cache_mod.get_cache("on")

    def test_max_bytes_env(self, cache_dir, monkeypatch):
        monkeypatch.setenv("NOVA_CACHE_MAX_BYTES", "12345")
        assert cache_mod.get_cache("on").disk.max_bytes == 12345


# ----------------------------------------------------------------------
# end-to-end transparency: warm == cold, bit for bit
# ----------------------------------------------------------------------
# all four chain algorithms; iexact restricted to machines whose
# constraints are known to embed quickly
WARM_MATRIX = (
    [("ihybrid", name) for name in benchmark_names("small")]
    + [("igreedy", name) for name in benchmark_names("small")]
    + [("onehot", name) for name in benchmark_names("small")]
    + [("iexact", name) for name in ("lion", "train4", "shiftreg", "tav")]
)


class TestTransparency:
    @pytest.mark.parametrize("algorithm,name", WARM_MATRIX,
                             ids=[f"{a}-{n}" for a, n in WARM_MATRIX])
    def test_cold_vs_warm_bit_identity(self, cache_dir, algorithm, name):
        fsm = benchmark(name)
        cold = encode_fsm(fsm, algorithm, cache="on")
        warm = encode_fsm(fsm, algorithm, cache="on")
        assert not cold.report.cache_hit
        assert warm.report.cache_hit
        assert comparable(cold) == comparable(warm)
        assert warm.pla.cover.cubes == cold.pla.cover.cubes
        assert warm.pla.on.cubes == cold.pla.on.cubes
        assert warm.pla.dc.cubes == cold.pla.dc.cubes
        # rehydrated, not re-timed (payload stores microsecond precision)
        assert warm.seconds == round(cold.seconds, 6)

    def test_disk_tier_survives_process_memory(self, cache_dir):
        fsm = benchmark("lion")
        cold = encode_fsm(fsm, "ihybrid", cache="on")
        cache_mod.reset()  # drop the memory tier, keep the blobs
        warm = encode_fsm(fsm, "ihybrid", cache="on")
        assert warm.report.cache_hit
        assert comparable(cold) == comparable(warm)

    def test_seeded_random_cached(self, cache_dir):
        fsm = benchmark("lion")
        cold = encode_fsm(fsm, "random", seed=3, cache="on")
        warm = encode_fsm(fsm, "random", seed=3, cache="on")
        assert warm.report.cache_hit
        assert warm.state_encoding == cold.state_encoding

    def test_unseeded_random_never_cached(self, cache_dir):
        fsm = benchmark("lion")
        encode_fsm(fsm, "random", cache="on")
        r = encode_fsm(fsm, "random", cache="on")
        assert not r.report.cache_hit

    def test_timeout_is_part_of_the_key(self, cache_dir):
        fsm = benchmark("lion")
        encode_fsm(fsm, "ihybrid", cache="on")  # fill (untimed)
        r = encode_fsm(fsm, "ihybrid", timeout=60.0, cache="on")
        assert not r.report.cache_hit  # different fingerprint

    def test_clean_timed_run_caches(self, cache_dir):
        # a generous timeout that never fires: the result is the pure
        # deterministic answer and is stored + served normally
        fsm = benchmark("lion")
        cold = encode_fsm(fsm, "ihybrid", timeout=600.0, cache="on")
        assert not cold.report.degraded
        warm = encode_fsm(fsm, "ihybrid", timeout=600.0, cache="on")
        assert warm.report.cache_hit
        assert comparable(warm) == comparable(cold)

    def test_degraded_timed_run_not_stored(self, cache_dir):
        # wall-clock shaped the outcome: never fill the cache with it
        fsm = benchmark("bbtas")
        r = encode_fsm(fsm, "ihybrid", timeout=0.0001, cache="on")
        assert r.report.degraded
        again = encode_fsm(fsm, "ihybrid", timeout=0.0001, cache="on")
        assert not again.report.cache_hit

    def test_armed_faults_bypass_cache(self, cache_dir):
        from repro.errors import EncodingInfeasible
        from repro.testing import faults

        fsm = benchmark("lion")
        encode_fsm(fsm, "ihybrid", cache="on")  # fill
        with faults.inject(faults.Fault("encode", EncodingInfeasible,
                                        match={"algorithm": "ihybrid"})):
            r = encode_fsm(fsm, "ihybrid", cache="on")
        assert not r.report.cache_hit
        assert r.report.degraded  # the fault really fired

    def test_version_bump_invalidates(self, cache_dir, monkeypatch):
        from repro import _version

        fsm = benchmark("lion")
        encode_fsm(fsm, "ihybrid", cache="on")
        monkeypatch.setattr(_version, "__version__", "999.0.0")
        r = encode_fsm(fsm, "ihybrid", cache="on")
        assert not r.report.cache_hit

    def test_corrupt_blob_recomputes_and_quarantines(self, cache_dir):
        fsm = benchmark("lion")
        opts = EncodeOptions(algorithm="ihybrid", cache="on")
        cold = encode_fsm(fsm, options=opts)
        key = cache_mod.fingerprint(fsm, opts)
        store = cache_mod.get_cache("on").disk
        store.path_for(key).write_bytes(b"\x00garbage not json")
        cache_mod.reset()  # force the disk read
        again = encode_fsm(fsm, options=opts)
        assert not again.report.cache_hit
        assert comparable_untimed(again) == comparable_untimed(cold)
        quarantined = store.path_for(key).with_suffix(".corrupt")
        assert quarantined.exists()
        # ... and the recompute re-published a valid blob
        cache_mod.reset()
        assert encode_fsm(fsm, options=opts).report.cache_hit

    def test_undecodable_payload_recomputes(self, cache_dir):
        # valid JSON object, wrong shape: decode fails, entry is
        # invalidated, the run falls back to a recompute
        fsm = benchmark("lion")
        opts = EncodeOptions(algorithm="ihybrid", cache="on")
        cold = encode_fsm(fsm, options=opts)
        key = cache_mod.fingerprint(fsm, opts)
        cache_mod.get_cache("on").disk.put(key, {"v": -1})
        cache_mod.reset()
        again = encode_fsm(fsm, options=opts)
        assert not again.report.cache_hit
        assert comparable_untimed(again) == comparable_untimed(cold)

    def test_perf_counters(self, cache_dir):
        fsm = benchmark("lion")
        with perf.collect() as stats:
            encode_fsm(fsm, "ihybrid", cache="on")
            encode_fsm(fsm, "ihybrid", cache="on")
        assert stats.cache_hit == 1
        assert stats.cache_miss == 1
        assert stats.cache_bytes > 0
        assert stats.as_dict()["cache_hit"] == 1

    def test_cache_info_clear(self, cache_dir):
        fsm = benchmark("lion")
        encode_fsm(fsm, "ihybrid", cache="on")
        info = cache_mod.cache_info()
        assert info["stores"] == 1 and info["entries"] == 1
        out = cache_mod.cache_clear()
        assert out["removed"] == 1
        assert cache_mod.cache_info()["entries"] == 0


# ----------------------------------------------------------------------
# concurrency: two independent processes racing on the same key
# ----------------------------------------------------------------------
_WORKER_SCRIPT = """
import sys
from repro.encoding.nova import encode_fsm
from repro.fsm.benchmarks import benchmark
r = encode_fsm(benchmark("train4"), "ihybrid", cache="on")
sys.stdout.write(f"{r.area}")
"""


class TestConcurrentWriters:
    def test_two_processes_fill_same_key(self, cache_dir, tmp_path):
        repo_root = os.path.dirname(os.path.dirname(__file__))
        env = dict(os.environ,
                   NOVA_CACHE_DIR=str(cache_dir),
                   PYTHONPATH=os.path.join(repo_root, "src") + os.pathsep
                              + os.environ.get("PYTHONPATH", ""))
        procs = [subprocess.Popen([sys.executable, "-c", _WORKER_SCRIPT],
                                  stdout=subprocess.PIPE, env=env,
                                  cwd=repo_root)
                 for _ in range(2)]
        outs = [p.communicate(timeout=120)[0] for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert outs[0] == outs[1] and outs[0]  # same area from both
        # exactly one valid blob for the key; no temp litter
        blobs = list(cache_dir.rglob("*.json"))
        assert len(blobs) == 1
        json.loads(blobs[0].read_bytes())
        assert not list(cache_dir.rglob("*.tmp"))
        # ... and this process now hits it
        warm = encode_fsm(benchmark("train4"), "ihybrid", cache="on")
        assert warm.report.cache_hit
        assert f"{warm.area}".encode() == outs[0]


# ----------------------------------------------------------------------
# batch-runner integration: a warm sweep short-circuits every task
# ----------------------------------------------------------------------
class TestBatchWarm:
    def test_warm_batch_hits_and_matches(self, cache_dir, tmp_path):
        from repro.runner import BatchRunner, read_results
        from repro.runner.batch import tasks_for_benchmarks

        def strip(rec):
            rec = dict(rec)
            for k in ("attempts", "elapsed", "perf", "cache_hit"):
                rec.pop(k, None)
            if rec.get("record") and rec["record"].get("report"):
                rec["record"] = dict(rec["record"])
                rec["record"]["report"] = {
                    k: v for k, v in rec["record"]["report"].items()
                    if k not in ("cache_hit", "stage_seconds")}
            return rec

        names = ("lion", "train4", "dk27")
        tasks = lambda: [t for t in tasks_for_benchmarks(
            "small", "ihybrid", {"cache": "on"}) if t.machine in names]
        cold = BatchRunner(tasks(), tmp_path / "cold", jobs=2).run()
        assert cold.ok
        warm = BatchRunner(tasks(), tmp_path / "warm", jobs=2).run()
        assert warm.ok
        cold_recs = {r["task"]: r for r in
                     read_results(tmp_path / "cold/results.jsonl").records}
        warm_recs = {r["task"]: r for r in
                     read_results(tmp_path / "warm/results.jsonl").records}
        assert set(cold_recs) == set(warm_recs) == {
            f"ihybrid:{n}" for n in names}
        for task_id in cold_recs:
            assert warm_recs[task_id]["cache_hit"] is True
            assert cold_recs[task_id]["cache_hit"] is False
            assert strip(cold_recs[task_id]) == strip(warm_recs[task_id])
            # even the run seconds are rehydrated bit-for-bit
            assert (warm_recs[task_id]["record"]["seconds"]
                    == cold_recs[task_id]["record"]["seconds"])


# ----------------------------------------------------------------------
# one read path: every entry point goes through repro.cache.lookup
# ----------------------------------------------------------------------
def _serve(service, *bodies):
    """``handle_encode`` each body in turn on one loop (the sanitizer's
    watched loop under NOVA_SANITIZE), then shut the workers down."""
    import asyncio

    from repro import config as config_mod
    from repro.testing import sanitize

    async def go():
        try:
            return [await service.handle_encode(dict(body))
                    for body in bodies]
        finally:
            service.shutdown()

    if config_mod.sanitize_enabled():
        return sanitize.watched_run(go())
    return asyncio.run(go())


def _via_encode_fsm(fsm, opts, tmp_path):
    result = encode_fsm(fsm, options=opts)
    return result.report.cache_hit, result.to_record()


def _via_batch_probe(fsm, opts, tmp_path):
    from repro.runner import BatchRunner, BatchTask, read_results

    task = BatchTask(fsm.name, algorithm=opts.algorithm,
                     options={"cache": opts.cache})
    assert BatchRunner([task], tmp_path / "run", jobs=1).run().ok
    (rec,) = read_results(tmp_path / "run" / "results.jsonl").records
    return rec["cache_hit"], rec["record"]


def _via_service(fsm, opts, tmp_path):
    from repro.server import EncodeService

    (response,) = _serve(
        EncodeService(workers=1, queue_limit=1, cache_policy=opts.cache),
        {"machine": fsm.name, "options": {"algorithm": opts.algorithm}})
    assert response.status == 200
    return response.body["cache"] is not None, response.body["record"]


def _untimed(record):
    """A journal/response record minus timing and cache provenance."""
    record = json.loads(json.dumps(record))
    record.pop("seconds", None)
    for key in ("cache_hit", "seconds", "stage_seconds"):
        record["report"].pop(key, None)
    return record


class TestSharedReadPath:
    @pytest.mark.parametrize("entry", [
        _via_encode_fsm, _via_batch_probe, _via_service,
    ], ids=["encode_fsm", "batch_probe", "service"])
    def test_undecodable_payload_is_quarantined_never_served(
            self, cache_dir, tmp_path, entry):
        fsm = benchmark("lion")
        opts = EncodeOptions(algorithm="ihybrid", cache="on")
        honest = encode_fsm(fsm, "ihybrid", cache="off")
        # a valid payload of another machine, planted under lion's key
        # in both tiers
        key = cache_mod.fingerprint(fsm, opts)
        wrong = encode_fsm(benchmark("lion9"), "ihybrid", cache="off")
        cache = cache_mod.get_cache("on")
        cache.put(key, encode_result(wrong))

        hit, record = entry(fsm, opts, tmp_path)

        assert not hit
        assert _untimed(record) == _untimed(honest.to_record())
        assert cache.disk.path_for(key).with_suffix(".corrupt").exists()
        # the recompute re-published a decodable entry
        cache_mod.reset()
        again = cache_mod.lookup(fsm, opts)
        assert again is not None and again[1] == "disk"
        assert _untimed(again[0].to_record()) == _untimed(record)

    def test_served_warm_hit_reaches_the_cache_counters(self):
        from repro.server import EncodeService

        body = {"machine": "dk27", "options": {"algorithm": "igreedy"}}
        service = EncodeService(workers=1, queue_limit=1,
                                cache_policy="memory")
        with perf.collect() as stats:
            cold, warm = _serve(service, body, body)
        assert cold.body["cache"] is None
        assert warm.body["cache"] == "memory"
        cache = cache_mod.get_cache("memory")
        assert (cache.hits, cache.misses) == (1, 1)
        assert (stats.cache_hit, stats.cache_miss) == (1, 1)
        assert service.stats.cache_memory_hits == 1
