"""The unified two-tier store layer (``repro.store``).

The contract: one :class:`~repro.store.tiered.TieredStore` (memory LRU
→ local disk) under both typed views, with the pre-refactor on-disk
layout preserved byte-for-byte.  Covered here:

* memory-tier LRU bounds (entries and bytes) and eviction accounting;
* tier promotion/demotion — a memory-evicted entry refills from disk;
* concurrent-writer safety — many processes ``put()``-ing the same key
  all succeed with no torn entry and no leftover temp files;
* the trace-handle LRU bound (:data:`TRACE_HANDLE_LIMIT`) and the
  regression that quarantine still invalidates open handles, evicted
  or not;
* the ``repro cache --store results|traces|all`` selector.
"""

import json
import multiprocessing
import pathlib

import pytest

from repro.cli import main
from repro.engine import (
    TRACE_HANDLE_LIMIT,
    EngineConfig,
    ExperimentEngine,
    ResultCache,
    TraceStore,
    corrupt_file,
)
from repro.engine.spec import WindowSpec
from repro.experiments.fig13 import microbench_window_spec
from repro.store import MemoryTier


def _spec(n: int = 1) -> WindowSpec:
    return microbench_window_spec(100 * n, "none", seed=n)


def _payload(n: int = 1) -> dict:
    return {"cycles": 1000 + n, "instructions": 100 + n}


# ----------------------------------------------------------------------
# Memory tier.


class TestMemoryTier:
    def test_entry_bound_evicts_lru(self):
        tier = MemoryTier(max_entries=2, max_bytes=None)
        tier.put("a", "A", 1)
        tier.put("b", "B", 1)
        assert tier.get("a") == "A"  # refreshes a
        tier.put("c", "C", 1)       # evicts b (LRU)
        assert tier.get("b") is None
        assert tier.get("a") == "A"
        assert tier.get("c") == "C"
        assert tier.counters.evictions == 1

    def test_byte_bound_evicts_until_under(self):
        tier = MemoryTier(max_entries=None, max_bytes=100)
        tier.put("a", "A", 60)
        tier.put("b", "B", 60)  # 120 > 100: evicts a
        assert tier.get("a") is None
        assert tier.get("b") == "B"

    def test_oversized_value_is_rejected_not_thrashed(self):
        tier = MemoryTier(max_entries=None, max_bytes=10)
        tier.put("small", "s", 5)
        tier.put("huge", "H", 50)  # cannot fit: dropped, evicts nothing
        assert tier.get("huge") is None
        assert tier.get("small") == "s"

    def test_zero_bound_disables_the_tier(self):
        tier = MemoryTier(max_entries=0, max_bytes=None)
        assert not tier.enabled
        tier.put("a", "A", 1)
        assert tier.get("a") is None


# ----------------------------------------------------------------------
# Promotion / demotion across tiers.


class TestTierPromotion:
    def test_disk_read_promotes_then_serves_from_memory(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, _payload())
        assert cache.get(spec) == _payload()   # disk (put doesn't promote)
        counters = cache.tier_counters()
        assert counters["disk"]["hits"] == 1
        assert counters["memory"]["hits"] == 0
        assert cache.get(spec) == _payload()   # now memory
        counters = cache.tier_counters()
        assert counters["memory"]["hits"] == 1
        assert counters["disk"]["hits"] == 1

    def test_memory_evicted_entry_refills_from_disk(self, tmp_path):
        cache = ResultCache(tmp_path, memory_entries=1)
        spec1, spec2 = _spec(1), _spec(2)
        cache.put(spec1, _payload(1))
        cache.put(spec2, _payload(2))
        assert cache.get(spec1) == _payload(1)  # promotes spec1
        assert cache.get(spec2) == _payload(2)  # promotes spec2, evicts 1
        assert cache.tier_counters()["memory"]["evictions"] == 1
        assert cache.get(spec1) == _payload(1)  # demoted: refills from disk
        assert cache.tier_counters()["disk"]["hits"] == 3

    def test_memory_payloads_do_not_alias(self, tmp_path):
        """A reducer mutating a returned payload must not pollute the
        memory tier (it holds canonical bytes, not the object)."""
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, _payload())
        first = cache.get(spec)
        first = cache.get(spec)  # memory-tier read
        first["cycles"] = -1
        assert cache.get(spec) == _payload()


# ----------------------------------------------------------------------
# Concurrent-writer safety.


def _concurrent_put(args):
    root, n = args
    from repro.engine import ResultCache

    cache = ResultCache(pathlib.Path(root))
    spec = microbench_window_spec(100, "none", seed=1)
    return cache.put(spec, {"cycles": 1001, "instructions": 101})


class TestConcurrentWriters:
    def test_same_key_from_many_processes_never_tears(self, tmp_path):
        workers = 8
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(workers) as pool:
            landed = pool.map(_concurrent_put,
                              [(str(tmp_path), n) for n in range(workers)])
        assert all(landed)
        cache = ResultCache(tmp_path, policy="verify")
        spec = microbench_window_spec(100, "none", seed=1)
        # verify policy: a torn entry would quarantine + raise.
        assert cache.get(spec) == {"cycles": 1001, "instructions": 101}
        assert not list(pathlib.Path(tmp_path).rglob(".tmp-*"))
        entries = [p for p in pathlib.Path(tmp_path).rglob("*.json")
                   if "quarantine" not in p.parts]
        assert len(entries) == 1


# ----------------------------------------------------------------------
# Trace-handle LRU.


class TestTraceHandles:
    def test_default_and_explicit_bounds(self, tmp_path):
        """The bound is the constant; a store takes no explicit one."""
        assert TraceStore(tmp_path).tier_counters()["memory"][
            "max_entries"] == TRACE_HANDLE_LIMIT
        with pytest.raises(TypeError):
            TraceStore(tmp_path, handles=16)

    def test_engine_threads_handles_through(self, tmp_path):
        engine = ExperimentEngine(
            config=EngineConfig(jobs=1), cache=ResultCache(tmp_path))
        assert engine.trace_store.tier_counters()["memory"][
            "max_entries"] == TRACE_HANDLE_LIMIT

    @pytest.mark.parametrize("count", [1, 2, 8])
    def test_quarantine_invalidates_handles_at_any_lru_size(
            self, tmp_path, count):
        """Regression: eviction pressure must not let a quarantined
        trace keep being served from a stale open handle.  With fewer
        traces than :data:`TRACE_HANDLE_LIMIT` the LRU holds them all;
        with more it also evicts."""
        store = TraceStore(tmp_path / "traces")
        specs = [
            microbench_window_spec(300, "full-dup", seed=s, kind="brr",
                                   interval=64, lfsr_seed=64)
            for s in range(1, count + 1)
        ]
        engine = ExperimentEngine(
            config=EngineConfig(jobs=1),
            cache=ResultCache(tmp_path / "cache"),
            trace_store=store)
        engine.run(specs)
        keys = [p.stem for p in
                sorted((tmp_path / "traces").rglob("*.trace"))]
        assert len(keys) == count
        # Warm the handle LRU, then corrupt + quarantine everything.
        for key in keys:
            store.load(key)
        for path in sorted((tmp_path / "traces").rglob("*.trace")):
            corrupt_file(path, seed=5, kind="truncate")
        report = store.scan(repair=True)
        assert report["corrupt"] == count
        for key in keys:
            assert store.load(key) is None  # no stale handle survives


# ----------------------------------------------------------------------
# `repro cache --store` selector (satellite).


class TestCacheStoreSelector:
    def _populate(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["figure13", "--scale", "300", "--jobs", "1",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        return cache_dir

    def _stats(self, cache_dir, capsys, *extra):
        assert main(["cache", "--json", "--cache-dir", cache_dir,
                     *extra]) == 0
        return json.loads(capsys.readouterr().out)

    def test_selector_narrows_stats(self, capsys, tmp_path):
        cache_dir = self._populate(tmp_path, capsys)
        only_results = self._stats(cache_dir, capsys,
                                   "--store", "results")
        assert only_results["store"] == "results"
        assert "results" in only_results and "traces" not in only_results
        only_traces = self._stats(cache_dir, capsys, "--store", "traces")
        assert "traces" in only_traces and "results" not in only_traces

    def test_clear_results_leaves_traces(self, capsys, tmp_path):
        cache_dir = self._populate(tmp_path, capsys)
        before = self._stats(cache_dir, capsys)
        assert before["results"]["entries"] > 0
        assert before["traces"]["entries"] > 0
        assert main(["cache", "clear", "--json", "--store", "results",
                     "--cache-dir", cache_dir]) == 0
        cleared = json.loads(capsys.readouterr().out)
        assert cleared["removed"] == {
            "results": before["results"]["entries"]}
        after = self._stats(cache_dir, capsys)
        assert after["results"]["entries"] == 0
        assert after["traces"]["entries"] == before["traces"]["entries"]

    def test_default_still_acts_on_both(self, capsys, tmp_path):
        cache_dir = self._populate(tmp_path, capsys)
        before = self._stats(cache_dir, capsys)
        assert main(["cache", "clear", "--json",
                     "--cache-dir", cache_dir]) == 0
        cleared = json.loads(capsys.readouterr().out)
        assert set(cleared["removed"]) == {"results", "traces"}
        assert cleared["removed"]["traces"] == before["traces"]["entries"]

    def test_stats_exposes_tier_telemetry(self, capsys, tmp_path):
        cache_dir = self._populate(tmp_path, capsys)
        stats = self._stats(cache_dir, capsys)
        for store in ("results", "traces"):
            tiers = stats[store]["tiers"]
            assert set(tiers) == {"memory", "disk"}
            assert "hits" in tiers["disk"]


class TestStoreEnvParsing:
    """The store-level variables parse strictly, like the engine's:
    every flag spelling works and a malformed value names itself."""

    @pytest.mark.parametrize("name", ["REPRO_CACHE", "REPRO_TRACE"])
    @pytest.mark.parametrize("raw,enabled", [
        ("off", False), ("0", False), ("No", False), ("FALSE", False),
        ("on", True), ("1", True), ("yes", True), ("", True),
    ])
    def test_store_flags(self, monkeypatch, name, raw, enabled):
        from repro.engine.cache import cache_enabled_by_env
        from repro.engine.tracestore import trace_enabled_by_env

        monkeypatch.setenv(name, raw)
        read = (cache_enabled_by_env if name == "REPRO_CACHE"
                else trace_enabled_by_env)
        assert read() is enabled

    @pytest.mark.parametrize("name,raw", [
        ("REPRO_CACHE", "disabled"),
        ("REPRO_TRACE", "2"),
        ("REPRO_MEM_ENTRIES", "many"),
        ("REPRO_MEM_BYTES", "64M"),
    ])
    def test_garbage_rejected(self, monkeypatch, tmp_path, name, raw):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=f"{name}={raw!r}"):
            ExperimentEngine(config=EngineConfig())

    @pytest.mark.parametrize("raw,rejected", [
        ("fs:/srv/shared", True), ("/srv/shared", True),
        ("none", False), ("0", False),
    ])
    def test_retired_store_backend(self, monkeypatch, raw, rejected):
        """The shared store backend is gone; a value that would have
        enabled it is refused rather than silently ignored."""
        monkeypatch.setenv("REPRO_STORE_BACKEND", raw)
        if rejected:
            with pytest.raises(ValueError,
                               match="REPRO_STORE_BACKEND=.*removed"):
                EngineConfig.from_env()
        else:
            assert isinstance(EngineConfig.from_env(), EngineConfig)

    def test_memory_bounds_read(self, monkeypatch):
        from repro.store import memory_bytes_from_env, memory_entries_from_env

        monkeypatch.setenv("REPRO_MEM_ENTRIES", "7")
        monkeypatch.setenv("REPRO_MEM_BYTES", "-1")
        assert memory_entries_from_env() == 7
        assert memory_bytes_from_env() == 0

    @pytest.mark.parametrize("name,raw", [
        ("REPRO_CACHE", "maybe"),
        ("REPRO_TRACE", "enabled"),
        ("REPRO_MEM_ENTRIES", "lots"),
        ("REPRO_MEM_BYTES", "1e6"),
        ("REPRO_STORE_BACKEND", "fs:/srv/shared"),
    ])
    def test_cli_usage_error(self, monkeypatch, capsys, tmp_path, name, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(SystemExit) as exit_info:
            main(["cost", "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert f"{name}={raw!r}" in capsys.readouterr().err
