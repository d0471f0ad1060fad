"""The unified three-tier store layer (``repro.store``).

The tentpole contract: one :class:`~repro.store.tiered.TieredStore`
(memory LRU → local disk → pluggable shared backend) under both typed
views, with the pre-refactor on-disk layout preserved byte-for-byte.
Covered here:

* memory-tier LRU bounds (entries and bytes) and eviction accounting;
* tier promotion/demotion — a memory-evicted entry refills from disk,
  a local miss falls through to the shared backend, a corrupt local
  entry self-heals from the backend under ``repair``;
* concurrent-writer safety — many processes ``put()``-ing the same key
  all succeed with no torn entry and no leftover temp files;
* the configurable trace-handle LRU (``REPRO_TRACE_HANDLES`` /
  ``EngineConfig.trace_handles``) and the regression that quarantine
  still invalidates open handles at any LRU size;
* the ``repro cache --store results|traces|all`` selector.
"""

import json
import multiprocessing
import pathlib

import pytest

from repro.cli import main
from repro.engine import (
    DEFAULT_TRACE_HANDLES,
    EngineConfig,
    ExperimentEngine,
    ResultCache,
    TraceStore,
    corrupt_file,
)
from repro.engine.spec import WindowSpec
from repro.experiments.fig13 import microbench_window_spec
from repro.store import (
    FilesystemBackend,
    MemoryTier,
    make_backend,
)


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
        cache = ResultCache(tmp_path, backend=None)
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
        cache = ResultCache(tmp_path, memory_entries=1, backend=None)
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
        cache = ResultCache(tmp_path, backend=None)
        spec = _spec()
        cache.put(spec, _payload())
        first = cache.get(spec)
        first = cache.get(spec)  # memory-tier read
        first["cycles"] = -1
        assert cache.get(spec) == _payload()


# ----------------------------------------------------------------------
# Shared backend tier.


class TestBackendTier:
    def test_local_miss_falls_through_to_backend(self, tmp_path):
        shared = tmp_path / "shared"
        writer = ResultCache(tmp_path / "a", backend=f"fs:{shared}")
        spec = _spec()
        writer.put(spec, _payload())
        # A second replica with an empty local store sees the entry.
        reader = ResultCache(tmp_path / "b", backend=f"fs:{shared}")
        assert reader.get(spec) == _payload()
        counters = reader.tier_counters()
        assert counters["backend"]["hits"] == 1
        # The fetch landed locally: the next read is a disk/memory hit.
        reader2 = ResultCache(tmp_path / "b", backend=None)
        assert reader2.get(spec) == _payload()

    def test_put_publishes_to_backend(self, tmp_path):
        shared = tmp_path / "shared"
        cache = ResultCache(tmp_path / "local", backend=f"fs:{shared}")
        cache.put(_spec(), _payload())
        published = list((shared / "results").rglob("*.json"))
        assert len(published) == 1

    def test_corrupt_local_entry_heals_from_backend(self, tmp_path):
        shared = tmp_path / "shared"
        cache = ResultCache(tmp_path / "local", policy="repair",
                            backend=f"fs:{shared}")
        spec = _spec()
        cache.put(spec, _payload())
        corrupt_file(cache._path(spec.cache_key), seed=1, kind="truncate")
        assert cache.get(spec) == _payload()  # healed, not a miss
        assert cache.integrity.quarantined == 1
        assert cache.integrity.repaired == 1

    def test_no_backend_means_miss(self, tmp_path):
        cache = ResultCache(tmp_path, backend=None)
        assert cache.get(_spec()) is None
        assert cache.tier_counters()["backend"] is None

    def test_backend_spec_parsing(self, tmp_path, monkeypatch):
        backend = make_backend(f"fs:{tmp_path}", "results")
        assert isinstance(backend, FilesystemBackend)
        assert backend.root == tmp_path / "results"
        # A bare path implies fs://.
        bare = make_backend(str(tmp_path), "traces")
        assert isinstance(bare, FilesystemBackend)
        assert bare.root == tmp_path / "traces"
        for disabled in ("", "0", "none", "off"):
            assert make_backend(disabled, "results") is None
        with pytest.raises(ValueError):
            make_backend("s3:bucket", "results")
        monkeypatch.setenv("REPRO_STORE_BACKEND", f"fs:{tmp_path}")
        assert EngineConfig.from_env().store_backend == f"fs:{tmp_path}"
        monkeypatch.setenv("REPRO_STORE_BACKEND", "none")
        assert EngineConfig.from_env().store_backend is None

    def test_trace_store_shares_backend_root_under_namespace(self, tmp_path):
        shared = tmp_path / "shared"
        store = TraceStore(tmp_path / "a" / "traces",
                           backend=f"fs:{shared}")
        spec = microbench_window_spec(300, "full-dup", seed=1, kind="brr",
                                      interval=64, lfsr_seed=64)
        engine = ExperimentEngine(
            config=EngineConfig(jobs=1),
            cache=ResultCache(tmp_path / "a", backend=None),
            trace_store=store)
        engine.run([spec])
        assert list((shared / "traces").rglob("*.trace"))
        # A second replica replays the shared trace instead of
        # re-executing the functional stream.
        replica = TraceStore(tmp_path / "b" / "traces",
                             backend=f"fs:{shared}")
        engine2 = ExperimentEngine(
            config=EngineConfig(jobs=1),
            cache=ResultCache(tmp_path / "b", backend=None),
            trace_store=replica)
        engine2.run([spec])
        assert replica.tier_counters()["backend"]["hits"] == 1


# ----------------------------------------------------------------------
# Concurrent-writer safety.


def _concurrent_put(args):
    root, n = args
    from repro.engine import ResultCache

    cache = ResultCache(pathlib.Path(root), backend=None)
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
        cache = ResultCache(tmp_path, policy="verify", backend=None)
        spec = microbench_window_spec(100, "none", seed=1)
        # verify policy: a torn entry would quarantine + raise.
        assert cache.get(spec) == {"cycles": 1001, "instructions": 101}
        assert not list(pathlib.Path(tmp_path).rglob(".tmp-*"))
        entries = [p for p in pathlib.Path(tmp_path).rglob("*.json")
                   if "quarantine" not in p.parts]
        assert len(entries) == 1


# ----------------------------------------------------------------------
# Configurable trace-handle LRU (satellite).


class TestTraceHandles:
    def test_default_and_explicit_bounds(self, tmp_path):
        assert TraceStore(tmp_path).handle_limit == DEFAULT_TRACE_HANDLES
        assert TraceStore(tmp_path, handles=16).handle_limit == 16

    def test_env_resolution(self, tmp_path, monkeypatch):
        """``REPRO_TRACE_HANDLES`` reaches a store only through
        ``EngineConfig.from_env``."""
        monkeypatch.setenv("REPRO_TRACE_HANDLES", "9")
        assert EngineConfig.from_env().trace_handles == 9
        assert TraceStore(tmp_path).handle_limit == DEFAULT_TRACE_HANDLES
        engine = ExperimentEngine(
            config=EngineConfig.from_env(jobs=1),
            cache=ResultCache(tmp_path / "cache"))
        assert engine.trace_store.handle_limit == 9
        monkeypatch.setenv("REPRO_TRACE_HANDLES", "0")
        assert EngineConfig.from_env().trace_handles == 1  # clamped
        monkeypatch.delenv("REPRO_TRACE_HANDLES")
        assert EngineConfig.from_env().trace_handles \
            == DEFAULT_TRACE_HANDLES

    def test_config_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EngineConfig(trace_handles=0)

    def test_engine_threads_handles_through(self, tmp_path):
        config = EngineConfig(jobs=1, trace_handles=7)
        engine = ExperimentEngine(
            config=config, cache=ResultCache(tmp_path, backend=None))
        assert engine.trace_store.handle_limit == 7

    @pytest.mark.parametrize("handles", [1, 2, 8])
    def test_quarantine_invalidates_handles_at_any_lru_size(
            self, tmp_path, handles):
        """Regression: eviction pressure must not let a quarantined
        trace keep being served from a stale open handle."""
        store = TraceStore(tmp_path / "traces", handles=handles,
                           backend=None)
        specs = [
            microbench_window_spec(300, "full-dup", seed=s, kind="brr",
                                   interval=64, lfsr_seed=64)
            for s in (1, 2, 3)
        ]
        engine = ExperimentEngine(
            config=EngineConfig(jobs=1),
            cache=ResultCache(tmp_path / "cache", backend=None),
            trace_store=store)
        engine.run(specs)
        keys = [p.stem for p in
                sorted((tmp_path / "traces").rglob("*.trace"))]
        assert len(keys) == 3
        # Warm the handle LRU, then corrupt + quarantine everything.
        for key in keys:
            store.load(key)
        for path in sorted((tmp_path / "traces").rglob("*.trace")):
            corrupt_file(path, seed=5, kind="truncate")
        report = store.scan(repair=True)
        assert report["corrupt"] == 3
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
            assert set(tiers) == {"memory", "disk", "backend"}
            assert "hits" in tiers["disk"]
