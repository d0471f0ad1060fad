"""Tests for the shared experiment engine.

Covers the WindowSpec/cache-key contract, the on-disk result cache,
round-trippable timing structures, the run-artifact recorder, and —
the load-bearing property — that serial, parallel and warm-cache
execution produce byte-identical reduced results.
"""

import dataclasses
import json
import pathlib
from collections import Counter

import pytest

from repro.engine import (
    SCHEMA_VERSION,
    EngineConfig,
    ExperimentEngine,
    ResultCache,
    RunRecorder,
    WindowRecord,
    WindowSpec,
)
from repro.engine.artifacts import PLAN_HISTORY
from repro.engine.integrity import ledger_line_crc
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

    def test_group_fallback_is_counted_and_identical(self, tmp_path,
                                                     monkeypatch):
        """A batched group replay that raises is re-run one window at a
        time: the payloads stay byte-identical, and the fallback shows
        in the summary instead of vanishing."""
        from repro.engine import windows
        from repro.experiments import microbench_window_spec

        specs = [
            microbench_window_spec(400, "full-dup", seed=3, kind="brr",
                                   interval=64, lfsr_seed=64,
                                   config=TimingConfig(**overrides))
            for overrides in ({}, {"ras_entries": 4}, {"btb_entries": 256})
        ]
        assert len({spec.cache_key for spec in specs}) == len(specs)
        grouped = ExperimentEngine(config=EngineConfig(jobs=1),
                                   cache=ResultCache(tmp_path / "grouped"))
        expected = [json.dumps(p, sort_keys=True)
                    for p in grouped.run(specs)]
        assert grouped.summary()["group_fallbacks"] == 0

        runner = windows.REGISTRY["microbench"]

        def broken_group(params_list, store, **options):
            if len(params_list) > 1:
                raise RuntimeError("injected group failure")
            return runner(params_list, store, **options)

        monkeypatch.setitem(windows.REGISTRY, "microbench", broken_group)
        fallback = ExperimentEngine(config=EngineConfig(jobs=1),
                                    cache=ResultCache(tmp_path / "solo"))
        payloads = fallback.run(specs)
        assert [json.dumps(p, sort_keys=True) for p in payloads] == expected
        summary = fallback.summary()
        assert summary["group_fallbacks"] == 1
        assert summary["cache_misses"] == len(specs)
        assert summary["failures"] == 0


def _config_specs():
    """Three timing configs of one functional microbench window."""
    from repro.experiments import microbench_window_spec

    return [
        microbench_window_spec(300, "full-dup", seed=0, kind="brr",
                               interval=256, config=TimingConfig(**overrides))
        for overrides in ({}, {"rob_entries": 16}, {"btb_entries": 256})
    ]


class TestOneWindowPath:
    """A single window and a same-trace config group run one path."""

    def test_storeless_group_equals_single_windows(self):
        from repro.engine.windows import run_window, run_window_group

        params = [spec.params_dict() for spec in _config_specs()[:2]]
        group = run_window_group("microbench", params, None)
        singles = [run_window("microbench", p, None) for p in params]
        assert [json.dumps(payload, sort_keys=True) for payload, _ in group] \
            == [json.dumps(payload, sort_keys=True)
                for payload, _ in singles]
        volatile = {"replay_records_per_s", "functional_steps"}
        for (_, grouped), (_, single) in zip(group, singles):
            assert grouped["trace"] == single["trace"] == "off"
            assert {k: v for k, v in grouped.items() if k not in volatile} \
                == {k: v for k, v in single.items() if k not in volatile}
        # The group records its stream once; each single call records it.
        assert [info["functional_steps"] for _, info in group] \
            == [singles[0][1]["functional_steps"], 0]
        assert singles[1][1]["functional_steps"] \
            == singles[0][1]["functional_steps"] > 0

    def test_grouped_ledger_equals_one_run_per_spec(self, tmp_path,
                                                    monkeypatch):
        from repro.engine import TraceStore, windows

        runner = windows.REGISTRY["microbench"]
        group_sizes = []

        def counting(params_list, store, **options):
            group_sizes.append(len(params_list))
            return runner(params_list, store, **options)

        monkeypatch.setitem(windows.REGISTRY, "microbench", counting)

        def engine(name):
            return ExperimentEngine(
                config=EngineConfig(jobs=1),
                cache=ResultCache(tmp_path / f"cache-{name}", enabled=False),
                recorder=RunRecorder(tmp_path / f"{name}.jsonl"),
                trace_store=TraceStore(tmp_path / f"traces-{name}",
                                       enabled=True))

        specs = _config_specs()
        grouped_payloads = engine("grouped").run(specs)
        assert group_sizes == [3]
        solo = engine("solo")
        solo_payloads = [solo.run([spec])[0] for spec in specs]
        assert group_sizes == [3, 1, 1, 1]
        assert json.dumps(grouped_payloads, sort_keys=True) \
            == json.dumps(solo_payloads, sort_keys=True)

        volatile = {"ts", "crc", "wall_s", "worker", "replay_records_per_s"}

        def ledger(name):
            return [{k: v for k, v in json.loads(line).items()
                     if k not in volatile}
                    for line in (tmp_path / f"{name}.jsonl").read_text()
                    .splitlines()]

        grouped, solo_lines = ledger("grouped"), ledger("solo")
        assert grouped == solo_lines
        assert [line["trace"] for line in grouped] == ["miss", "hit", "hit"]
        for line in grouped:
            assert {"trace", "functional_steps", "trace_bytes",
                    "timing_path", "timing_kernel",
                    "timing_route"} <= set(line)


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


def _list_summary(records, plans):
    """The recorder's summary as it was computed when the recorder
    kept every record: one scan of the list per field.  The oracle for
    the running aggregates (``elapsed_s`` aside)."""
    def tally(values):
        counts = Counter(value for value in values if value is not None)
        return dict(sorted(counts.items()))

    hits = sum(1 for r in records if r.cache == "hit")
    failures = sum(1 for r in records if r.cache == "failed")
    return {
        "plans": [dict(plan) for plan in plans[-PLAN_HISTORY:]],
        "plan_modes": tally(plan["plan"]["mode"] for plan in plans),
        "windows": len(records),
        "cache_hits": hits,
        "cache_misses": len(records) - hits - failures,
        "failures": failures,
        "retries": sum(max(0, (r.attempts or 1) - 1) for r in records),
        "group_fallbacks": 0,
        "window_wall_s": round(sum(r.wall_s for r in records), 4),
        "simulated_cycles": sum(r.cycles or 0 for r in records),
        "simulated_instructions": sum(r.instructions or 0 for r in records),
        "workers": sorted({r.worker for r in records
                           if r.worker is not None}),
        "trace_hits": sum(1 for r in records if r.trace == "hit"),
        "trace_misses": sum(1 for r in records if r.trace == "miss"),
        "functional_steps": sum(r.functional_steps or 0 for r in records),
        "fastpath_windows": sum(1 for r in records
                                if r.timing_path == "fast"),
        "goldenpath_windows": sum(1 for r in records
                                  if r.timing_path == "golden"),
        "timing_kernels": tally(r.timing_kernel for r in records),
        "timing_routes": tally(r.timing_route for r in records),
        "validation_passes": sum(1 for r in records
                                 if r.validation == "pass"),
        "validation_divergences": sum(1 for r in records
                                      if r.validation == "divergence"),
    }


def _mixed_records():
    """Hits, misses and failed placeholders from several workers, with
    retries, trace hits/misses/off, every kernel and route, and
    validation passes and divergences.  Wall times are binary
    fractions, so every summation order gives the same float."""
    def window(index, cache, **fields):
        defaults = dict(key=f"{index:064x}", kind="microbench",
                        label=f"microbench(seed={index})", cache=cache,
                        wall_s=0.0, worker=None, cycles=None,
                        instructions=None, ts=1000.0 + index)
        return WindowRecord(**dict(defaults, **fields))

    records = []
    for index in range(60):
        shape = index % 6
        if shape == 0:
            records.append(window(index, "hit", cycles=1000 + index,
                                  instructions=700 + index))
        elif shape == 1:
            records.append(window(
                index, "miss", wall_s=0.125 * (index % 5), worker=4000 + index % 3,
                cycles=5000 + index, instructions=3000 + index,
                trace="miss", trace_bytes=2048, functional_steps=3000 + index,
                timing_path="fast", timing_kernel="vector",
                timing_route="admitted", replay_records_per_s=1.5e6,
                attempts=1 + index % 3, validation="pass"))
        elif shape == 2:
            records.append(window(
                index, "miss", wall_s=0.5, worker=4001, cycles=6000,
                instructions=4000, trace="hit", trace_bytes=2048,
                functional_steps=0, timing_path="fast",
                timing_kernel="loop", timing_route="dense", attempts=2,
                validation="divergence" if index % 4 else None))
        elif shape == 3:
            records.append(window(
                index, "miss", wall_s=0.25, worker=4002, cycles=7000,
                instructions=5000, trace="off", functional_steps=5000,
                timing_path="fast", timing_kernel="vector",
                timing_route="admitted", attempts=1))
        elif shape == 4:
            records.append(window(
                index, "failed", attempts=4, error="RuntimeError('x')"))
        else:
            records.append(window(
                index, "miss", wall_s=0.75, worker=4000, cycles=None,
                trace="miss", functional_steps=100, timing_path="golden",
                timing_kernel="golden", timing_route="envelope",
                attempts=1))
    return records


class TestRunRecorderAggregates:
    def test_empty_summary_matches_list_oracle(self):
        summary = RunRecorder().summary()
        summary.pop("elapsed_s")
        assert json.dumps(summary, sort_keys=True) \
            == json.dumps(_list_summary([], []), sort_keys=True)

    def test_running_summary_matches_list_oracle(self):
        recorder = RunRecorder()
        records = _mixed_records()
        plans = []
        modes = ("fraction", "budget", "adaptive", "fraction")
        for index, record in enumerate(records):
            recorder.record(record)
            if index % 4 == 0:
                # More plans than the summary keeps (PLAN_HISTORY).
                plan = {"plan": {"mode": modes[index % 7 % 4]},
                        "cells": index}
                recorder.write_plan(plan)
                plans.append(plan)
            summary = recorder.summary()
            assert isinstance(summary.pop("elapsed_s"), float)
            # json.dumps also tells an int total from a float one.
            assert json.dumps(summary, sort_keys=True) == json.dumps(
                _list_summary(records[:index + 1], plans), sort_keys=True)
        summary = recorder.summary()
        assert len(plans) > PLAN_HISTORY
        assert len(summary["plans"]) == PLAN_HISTORY
        assert sum(summary["plan_modes"].values()) == len(plans)
        assert summary["failures"] and summary["retries"]
        assert summary["validation_divergences"]
        assert set(summary["timing_kernels"]) == {"golden", "loop", "vector"}

    def test_ledger_lines_are_asdict_lines(self, tmp_path):
        log = tmp_path / "run.jsonl"
        recorder = RunRecorder(log)
        records = _mixed_records()
        for record in records:
            recorder.record(record)
        expected = []
        for record in records:
            payload = dataclasses.asdict(record)
            payload["crc"] = ledger_line_crc(payload)
            expected.append(json.dumps(payload, sort_keys=True))
        assert log.read_text().splitlines() == expected


class TestHitCounting:
    """Without a ledger the engine counts a cache hit instead of
    building its :class:`WindowRecord`; the summary must not tell the
    two paths apart."""

    def test_counted_hits_match_recorded_hits(self, tmp_path):
        specs = _tiny_specs()
        cache_root = tmp_path / "c"
        ExperimentEngine(cache=ResultCache(cache_root)).run(specs)

        def warm(recorder):
            engine = ExperimentEngine(cache=ResultCache(cache_root),
                                      recorder=recorder)
            payloads = engine.run(specs + specs[:1])
            summary = engine.summary()
            summary.pop("elapsed_s")
            return payloads, summary

        counted_payloads, counted = warm(RunRecorder())
        log = tmp_path / "run.jsonl"
        recorded_payloads, recorded = warm(RunRecorder(log))
        assert counted_payloads == recorded_payloads
        assert json.dumps(counted, sort_keys=True) \
            == json.dumps(recorded, sort_keys=True)
        assert counted["cache_hits"] == counted["windows"] == len(specs) + 1
        assert counted["simulated_cycles"] > 0
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [line["cache"] for line in lines] == ["hit"] * (len(specs) + 1)

    def test_overridden_record_sees_hits_only_with_a_ledger(self, tmp_path):
        class Spy(RunRecorder):
            def __init__(self, log_path=None):
                super().__init__(log_path)
                self.seen = []

            def record(self, record):
                self.seen.append(record.cache)
                super().record(record)

        specs = _tiny_specs()[:2]
        cache_root = tmp_path / "c"
        ExperimentEngine(cache=ResultCache(cache_root)).run(specs)
        for log_path, seen in ((None, []),
                               (tmp_path / "run.jsonl", ["hit", "hit"])):
            spy = Spy(log_path)
            engine = ExperimentEngine(cache=ResultCache(cache_root),
                                      recorder=spy)
            engine.run(specs)
            assert spy.seen == seen
            assert engine.summary()["cache_hits"] == len(specs)


class TestPoolWorkerStore:
    def test_pooled_sweep_decodes_once_per_worker(self, tmp_path,
                                                  monkeypatch):
        """A pooled sweep of one trace over six timing configs, on a
        warm trace store: each worker decodes the trace at most once,
        not once per window, and the payloads equal the serial ones."""
        import multiprocessing
        import os
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine import TraceStore
        from repro.experiments.sensitivity import timing_config_sweep
        from repro.sim.trace_io import RecordedTrace

        traces = tmp_path / "traces"
        serial = timing_config_sweep(n_chars=200, engine=ExperimentEngine(
            config=EngineConfig(jobs=1), cache=ResultCache(tmp_path / "s"),
            trace_store=TraceStore(traces)))

        decodes = tmp_path / "decodes.txt"
        columns = RecordedTrace.columns

        def counted(self, *args, **kwargs):
            if self._columns is None:
                with open(decodes, "a", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()}\n")
            return columns(self, *args, **kwargs)

        monkeypatch.setattr(RecordedTrace, "columns", counted)
        fork = multiprocessing.get_context("fork")
        pooled_engine = ExperimentEngine(
            config=EngineConfig(jobs=2), cache=ResultCache(tmp_path / "p"),
            trace_store=TraceStore(traces),
            executor_factory=lambda workers: ProcessPoolExecutor(
                max_workers=workers, mp_context=fork))
        pooled = timing_config_sweep(n_chars=200, engine=pooled_engine)

        assert json.dumps(pooled.configs, sort_keys=True) \
            == json.dumps(serial.configs, sort_keys=True)
        summary = pooled_engine.summary()
        assert summary["cache_misses"] == len(serial.configs) == 6
        assert summary["trace_hits"] == 6 and summary["trace_misses"] == 0
        per_worker = Counter(int(pid) for pid in decodes.read_text().split())
        assert per_worker and max(per_worker.values()) == 1
        assert set(per_worker) <= set(summary["workers"])
