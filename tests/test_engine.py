"""Tests for the shared experiment engine.

Covers the WindowSpec/cache-key contract, the on-disk result cache,
round-trippable timing structures, the run-artifact recorder, and —
the load-bearing property — that serial, parallel and warm-cache
execution produce byte-identical reduced results.
"""

import json
import pathlib

import pytest

from repro.engine import (
    SCHEMA_VERSION,
    EngineConfig,
    ExperimentEngine,
    ResultCache,
    RunRecorder,
    WindowSpec,
)
from repro.timing.config import PAPER_CONFIG, TimingConfig
from repro.timing.pipeline import TimingStats
from repro.timing.runner import WindowResult


class TestWindowSpec:
    def test_param_order_is_canonical(self):
        a = WindowSpec.make("accuracy", seed=1, scale=0.01, interval=1024)
        b = WindowSpec.make("accuracy", interval=1024, scale=0.01, seed=1)
        assert a == b
        assert a.cache_key == b.cache_key

    def test_kind_param_coexists_with_window_kind(self):
        spec = WindowSpec.make("microbench", kind="cbs", interval=64)
        assert spec.kind == "microbench"
        assert spec.param("kind") == "cbs"

    def test_any_param_change_changes_key(self):
        base = WindowSpec.make("accuracy", seed=1, scale=0.01)
        assert base.cache_key != WindowSpec.make(
            "accuracy", seed=2, scale=0.01).cache_key
        assert base.cache_key != WindowSpec.make(
            "accuracy", seed=1, scale=0.02).cache_key
        assert base.cache_key != WindowSpec.make(
            "jvm", seed=1, scale=0.01).cache_key

    def test_round_trip(self):
        spec = WindowSpec.make("accuracy", taps=(32, 31, 30, 10),
                               benchmark={"name": "fop", "seed": 101},
                               policy="spaced", seed=0)
        again = WindowSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.cache_key == spec.cache_key

    def test_nested_structures_canonicalise(self):
        a = WindowSpec.make("x", config={"b": 1, "a": [1, 2]})
        b = WindowSpec.make("x", config={"a": (1, 2), "b": 1})
        assert a.cache_key == b.cache_key

    def test_non_jsonable_param_rejected(self):
        with pytest.raises(TypeError):
            WindowSpec.make("x", bad=object())

    def test_key_folds_in_schema_version(self):
        spec = WindowSpec.make("accuracy", seed=1)
        blob = json.dumps(
            {"schema": SCHEMA_VERSION, "kind": "accuracy",
             "params": {"seed": 1}},
            sort_keys=True, separators=(",", ":"))
        import hashlib

        assert spec.cache_key == hashlib.sha256(blob.encode()).hexdigest()


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = WindowSpec.make("accuracy", seed=1)
        assert cache.get(spec) is None
        cache.put(spec, {"value": 42})
        assert cache.get(spec) == {"value": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_versioned_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = WindowSpec.make("accuracy", seed=1)
        cache.put(spec, {"value": 1})
        key = spec.cache_key
        assert (tmp_path / f"v{SCHEMA_VERSION}" / key[:2]
                / f"{key}.json").exists()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = WindowSpec.make("accuracy", seed=1)
        cache.put(spec, {"value": 1})
        path = cache._path(spec.cache_key)
        path.write_text("{not json")
        assert cache.get(spec) is None
        assert not path.exists()

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        spec = WindowSpec.make("accuracy", seed=1)
        cache.put(spec, {"value": 1})
        assert cache.get(spec) is None
        assert not any(tmp_path.iterdir())


class TestSerialization:
    """Satellite: round-trippable timing structures (no pickle)."""

    def test_timing_config_round_trip(self):
        config = PAPER_CONFIG.with_overrides(brr_shared_lfsr=True,
                                             l2_latency=12)
        data = json.loads(json.dumps(config.to_dict()))
        assert TimingConfig.from_dict(data) == config

    def test_timing_config_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            TimingConfig.from_dict({"warp_drive": 9})

    def test_timing_stats_round_trip(self):
        stats = TimingStats(instructions=10, cycles=25, loads=3,
                            cond_branches=4, cond_mispredicts=1)
        data = json.loads(json.dumps(stats.to_dict()))
        again = TimingStats.from_dict(data)
        assert again == stats
        assert again.branch_accuracy == stats.branch_accuracy

    def test_timing_stats_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            TimingStats.from_dict({"cycles": 1, "bogons": 2})

    def test_window_result_round_trip(self):
        result = WindowResult(
            stats=TimingStats(instructions=100, cycles=240),
            total_steps=123,
        )
        data = json.loads(json.dumps(result.to_dict()))
        again = WindowResult.from_dict(data)
        assert again.cycles == result.cycles
        assert again.instructions == result.instructions
        assert again.total_steps == result.total_steps


def _tiny_specs():
    """A small mixed batch: accuracy + timing windows."""
    from repro.experiments import accuracy_window_spec, microbench_window_spec
    from repro.workloads import get_workload

    return [
        accuracy_window_spec(get_workload("fop").spec, 1 << 10,
                             ("sw", "random"), 0.003, seed=0),
        accuracy_window_spec(get_workload("fop").spec, 1 << 10,
                             ("random",), 0.003, seed=1),
        microbench_window_spec(500, "full-dup", seed=1, kind="brr",
                               interval=64, lfsr_seed=64),
        microbench_window_spec(500, "none", seed=1),
    ]


class TestEngineExecution:
    def test_serial_matches_parallel_and_warm_cache(self, tmp_path):
        """Satellite: REPRO_JOBS=1, REPRO_JOBS=4 and a warm cache all
        produce byte-identical payloads (every RNG is in the key)."""
        specs = _tiny_specs()
        serial = ExperimentEngine(config=EngineConfig(jobs=1),
                                  cache=ResultCache(tmp_path / "s"))
        parallel = ExperimentEngine(config=EngineConfig(jobs=4),
                                    cache=ResultCache(tmp_path / "p"))

        serial_payloads = serial.run(specs)
        parallel_payloads = parallel.run(specs)
        warm_payloads = serial.run(specs)

        canonical = [json.dumps(p, sort_keys=True) for p in serial_payloads]
        assert canonical == [json.dumps(p, sort_keys=True)
                             for p in parallel_payloads]
        assert canonical == [json.dumps(p, sort_keys=True)
                             for p in warm_payloads]

        summary = serial.summary()
        assert summary["windows"] == 2 * len(specs)
        assert summary["cache_hits"] == len(specs)

    def test_reduced_figure_is_identical_across_backends(self, tmp_path):
        """Figure-level determinism: the reducers' JSON output is
        byte-identical whichever backend computed the windows."""
        from repro.experiments import accuracy_figure
        from repro.workloads import get_workload

        benchmarks = [get_workload("fop").spec, get_workload("antlr").spec]
        outputs = [
            json.dumps(accuracy_figure(1 << 10, scale=0.003,
                                       benchmarks=benchmarks, engine=engine),
                       sort_keys=True)
            for engine in (
                ExperimentEngine(config=EngineConfig(jobs=1),
                                 cache=ResultCache(tmp_path / "s")),
                ExperimentEngine(config=EngineConfig(jobs=4),
                                 cache=ResultCache(tmp_path / "p")),
                ExperimentEngine(config=EngineConfig(jobs=1),
                                 cache=ResultCache(tmp_path / "s")),
            )
        ]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unknown_kind_raises(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path, enabled=False))
        with pytest.raises(ValueError):
            engine.run([WindowSpec.make("no-such-kind", x=1)])

    def test_empty_batch(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        assert engine.run([]) == []

    def test_constructor_is_keyword_only(self, tmp_path):
        """The scalar ``jobs=``/``fast=`` kwargs are retired: every
        knob travels in the config, every argument by keyword."""
        with pytest.raises(TypeError):
            ExperimentEngine(3)
        with pytest.raises(TypeError):
            ExperimentEngine(jobs=3, cache=ResultCache(tmp_path))
        engine = ExperimentEngine(config=EngineConfig(jobs=3, fast="off"),
                                  cache=ResultCache(tmp_path))
        assert engine.jobs == 3
        assert engine.config.fast == "off"


class TestRunArtifacts:
    def test_jsonl_records(self, tmp_path):
        log = tmp_path / "BENCH_windows.jsonl"
        engine = ExperimentEngine(cache=ResultCache(tmp_path / "c"),
                                  recorder=RunRecorder(log))
        specs = _tiny_specs()[:2]
        engine.run(specs)
        engine.run(specs)  # warm pass appends hit records
        lines = [json.loads(line)
                 for line in log.read_text().splitlines()]
        assert len(lines) == 4
        for record in lines:
            assert {"key", "kind", "cache", "wall_s", "worker",
                    "cycles", "instructions", "ts"} <= set(record)
        assert [r["cache"] for r in lines] == ["miss", "miss", "hit", "hit"]
        assert all(r["worker"] is None for r in lines if r["cache"] == "hit")

    def test_summary_counts(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path / "c"))
        engine.run(_tiny_specs()[2:])
        summary = engine.summary()
        assert summary["windows"] == 2
        assert summary["cache_misses"] == 2
        assert summary["simulated_cycles"] > 0
        assert summary["simulated_instructions"] > 0
        # Fault-tolerance telemetry is always present (zero on a
        # clean run).
        assert summary["failures"] == 0
        assert summary["retries"] == 0
        assert summary["resumed"] == 0
