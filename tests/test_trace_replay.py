"""Golden tests: record/replay is byte-identical to lock-step.

The record-once / replay-many subsystem must be invisible in the
results — for every scorecard/figure window, the timing stats obtained
by replaying a recorded functional trace must match the lock-step
reference path bit for bit.  These tests pin that property at the
timing layer (direct record/replay), at the engine layer (trace store
hit/miss), and for the warm-trace sensitivity sweep's functional-step
accounting (the >= 5x acceptance criterion).
"""

import json

import pytest

from repro.engine import (
    EngineConfig,
    ExperimentEngine,
    ResultCache,
    RunRecorder,
    TraceStore,
)
from repro.engine.tracestore import functional_key
from repro.engine.windows import MATERIALS, run_window
from repro.experiments.fig12 import jvm_window_spec
from repro.experiments.fig13 import COMBOS, microbench_window_spec
from repro.jvm.benchmarks import FIGURE12_BENCHMARKS


def _canonical(payload):
    return json.dumps(payload, sort_keys=True)


def _run(spec, store):
    return run_window(spec.kind, spec.params_dict(), store)


#: Every timed window the scorecard grades: the 15 Figure 12 cells
#: (5 mini-JVM benchmarks x none/cbs/brr) at full scale and the four
#: Figure 13/14 framework combinations at the per-site-gap interval.
SCORECARD_WINDOWS = [
    jvm_window_spec(name, variant, scale=1.0)
    for name in FIGURE12_BENCHMARKS
    for variant in ("none", "cbs", "brr")
] + [
    microbench_window_spec(600, duplication, seed=0, kind=kind,
                           interval=1024)
    for kind, duplication in COMBOS
]


def _lockstep(spec):
    """The window's stats on the lock-step reference path: a fresh
    machine driving the timing model, no trace at all."""
    from repro.timing.config import TimingConfig
    from repro.timing.runner import time_window

    params = spec.params_dict()
    materials = MATERIALS[spec.kind](params)
    config = params.get("config")
    return time_window(
        materials["program"], materials["begin"], materials["end"],
        brr_unit=materials["brr_unit"], setup=materials["setup"],
        fast_forward=materials["fast_forward"],
        config=None if config is None else TimingConfig.from_dict(config),
    ).to_dict()


class TestGoldenReplay:
    @pytest.mark.parametrize(
        "spec", SCORECARD_WINDOWS,
        ids=[spec.label() for spec in SCORECARD_WINDOWS])
    def test_replay_matches_lockstep(self, spec, tmp_path):
        store = TraceStore(tmp_path / "traces", enabled=True)
        lockstep = _lockstep(spec)
        storeless, off_info = _run(spec, None)
        recorded, miss_info = _run(spec, store)
        replayed, hit_info = _run(spec, store)

        assert storeless["result"] == lockstep
        assert _canonical(recorded) == _canonical(storeless)
        assert _canonical(replayed) == _canonical(storeless)

        assert off_info["trace"] == "off"
        assert miss_info["trace"] == "miss"
        assert hit_info["trace"] == "hit"
        # Without a store the window is recorded in memory, so it pays
        # the whole stream (entry to end marker) like a store miss; a
        # warm replay pays nothing.
        assert off_info["functional_steps"] == lockstep["total_steps"]
        assert miss_info["functional_steps"] \
            == off_info["functional_steps"]
        assert hit_info["functional_steps"] == 0
        assert hit_info["trace_bytes"] == miss_info["trace_bytes"] > 0
        assert off_info["trace_bytes"] is None
        assert off_info["timing_path"] == miss_info["timing_path"]


class TestTraceStore:
    def test_functional_key_ignores_config(self):
        from repro.timing.config import NAIVE_BRR_CONFIG

        paper = jvm_window_spec("mandel", "brr", scale=0.5)
        naive = jvm_window_spec("mandel", "brr", scale=0.5,
                                config=NAIVE_BRR_CONFIG)
        assert paper.cache_key != naive.cache_key
        assert functional_key(paper.kind, paper.params_dict()) \
            == functional_key(naive.kind, naive.params_dict())

    def test_functional_key_separates_functional_params(self):
        a = jvm_window_spec("mandel", "brr", scale=0.5)
        b = jvm_window_spec("mandel", "brr", scale=0.6)
        assert functional_key(a.kind, a.params_dict()) \
            != functional_key(b.kind, b.params_dict())

    def test_corrupt_entry_is_a_miss_and_rerecorded(self, tmp_path):
        spec = microbench_window_spec(300, "full-dup", seed=0, kind="brr",
                                      interval=256)
        store = TraceStore(tmp_path, enabled=True)
        reference, _ = _run(spec, None)
        _run(spec, store)
        key = functional_key(spec.kind, spec.params_dict())
        path = store._path(key)
        assert path.is_file()
        path.write_bytes(b"garbage that is long enough to not be tiny")
        # The writing store still holds a valid in-memory handle; a
        # fresh store (a new process) must observe the corruption.
        payload, info = _run(spec, store)
        assert info["trace"] == "hit"  # handle cache masks the bad file
        assert _canonical(payload) == _canonical(reference)
        store = TraceStore(tmp_path, enabled=True)
        payload, info = _run(spec, store)
        assert info["trace"] == "miss"  # corrupt entry dropped, re-recorded
        assert _canonical(payload) == _canonical(reference)
        payload, info = _run(spec, store)
        assert info["trace"] == "hit"

    def test_disabled_store_records_in_memory(self, tmp_path):
        spec = microbench_window_spec(300, "full-dup", seed=0, kind="cbs",
                                      interval=256)
        store = TraceStore(tmp_path, enabled=False)
        reference, _ = _run(spec, None)
        payload, info = _run(spec, None)
        assert info["trace"] == "off"
        assert _canonical(payload) == _canonical(reference)
        assert not any(tmp_path.iterdir())

    def test_stats_prune_clear(self, tmp_path):
        spec = microbench_window_spec(300, "full-dup", seed=0, kind="brr",
                                      interval=256)
        store = TraceStore(tmp_path, enabled=True)
        _run(spec, store)
        stats = store.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0

        stale = tmp_path / "v0" / "ab"
        stale.mkdir(parents=True)
        (stale / "old.trace").write_bytes(b"stale")
        assert store.prune() == 1
        assert store.stats()["entries"] == 1  # current version untouched
        assert store.clear() == 1
        assert store.stats()["entries"] == 0


class TestSweepAccounting:
    """Acceptance criterion: a warm-trace sweep pays >= 5x fewer
    functional Machine.step() calls than per-config re-execution,
    and the accounting lands in the JSONL artifact."""

    def _engine(self, tmp_path, name):
        return ExperimentEngine(
            config=EngineConfig(jobs=1),
            cache=ResultCache(tmp_path / f"cache-{name}", enabled=False),
            recorder=RunRecorder(tmp_path / f"{name}.jsonl"),
            trace_store=TraceStore(tmp_path / "traces", enabled=True),
        )

    def test_sweep_records_once_and_replays(self, tmp_path):
        from repro.experiments import timing_config_sweep

        engine = self._engine(tmp_path, "cold")
        result = timing_config_sweep(n_chars=300, engine=engine)
        n_configs = len(result.configs)
        assert n_configs >= 6
        # One recording serves every configuration.
        assert result.lockstep_steps \
            >= n_configs * min(row["total_steps"]
                               for row in result.configs.values())
        assert result.step_reduction >= 5.0

        # The same numbers are in the JSONL artifact, deterministically.
        lines = [json.loads(line) for line in
                 (tmp_path / "cold.jsonl").read_text().splitlines()]
        assert len(lines) == n_configs
        assert sum(1 for l in lines if l["trace"] == "miss") == 1
        assert sum(1 for l in lines if l["trace"] == "hit") == n_configs - 1
        assert sum(l["functional_steps"] for l in lines) \
            == result.functional_steps
        summary = engine.summary()
        assert summary["trace_misses"] == 1
        assert summary["trace_hits"] == n_configs - 1

    def test_second_sweep_counts_only_its_own_steps(self, tmp_path):
        """The sweep's ``functional_steps`` is its delta of the engine
        recorder's running total, so a second sweep on one engine
        reports its own windows' steps, as summed in the ledger."""
        from repro.experiments import timing_config_sweep

        engine = self._engine(tmp_path, "twice")
        first = timing_config_sweep(n_chars=300, engine=engine)
        second = timing_config_sweep(n_chars=200, engine=engine)
        lines = [json.loads(line) for line in
                 (tmp_path / "twice.jsonl").read_text().splitlines()]
        split = len(first.configs)
        assert len(lines) == split + len(second.configs)
        assert first.functional_steps \
            == sum(l["functional_steps"] for l in lines[:split])
        assert second.functional_steps \
            == sum(l["functional_steps"] for l in lines[split:]) > 0

    def test_warm_sweep_pays_zero_functional_steps(self, tmp_path):
        from repro.experiments import timing_config_sweep

        cold = timing_config_sweep(n_chars=300,
                                   engine=self._engine(tmp_path, "cold"))
        warm = timing_config_sweep(n_chars=300,
                                   engine=self._engine(tmp_path, "warm"))
        assert warm.configs == cold.configs
        assert warm.functional_steps == 0
        assert warm.step_reduction == float("inf")
        assert warm.to_dict()["step_reduction"] is None

    def test_sweep_identical_with_store_disabled(self, tmp_path):
        from repro.experiments import timing_config_sweep

        engine_off = ExperimentEngine(
            config=EngineConfig(jobs=1),
            cache=ResultCache(tmp_path / "cache-off", enabled=False),
            trace_store=TraceStore(tmp_path / "traces-off", enabled=False),
        )
        off = timing_config_sweep(n_chars=300, engine=engine_off)
        on = timing_config_sweep(n_chars=300,
                                 engine=self._engine(tmp_path, "on"))
        assert on.configs == off.configs
        # Without a store each configuration records its own stream.
        assert off.functional_steps == off.lockstep_steps


class TestFastForwardReplay:
    def test_fast_forward_window_matches_lockstep(self):
        from repro.isa.asm import assemble
        from repro.timing.runner import (
            record_window,
            replay_window,
            time_window,
        )

        source = """
            li r3, 500
        pre:
            addi r3, r3, -1
            bne r3, r0, pre
            marker 1
            li r3, 100
        warm:
            addi r3, r3, -1
            bne r3, r0, warm
            marker 2
            li r1, 50
        win:
            addi r1, r1, -1
            bne r1, r0, win
            marker 3
            halt
        """
        program = assemble(source)
        lockstep = time_window(program, begin=(2, 1), end=(3, 1),
                               fast_forward=(1, 1))
        trace = record_window(program, end=(3, 1))
        replayed = replay_window(trace, begin=(2, 1), end=(3, 1),
                                 fast_forward=(1, 1), program=program)
        assert replayed.to_dict() == lockstep.to_dict()

    def test_out_of_order_window_points_rejected(self):
        from repro.isa.asm import assemble
        from repro.sim.trace_io import TraceFormatError
        from repro.timing.runner import record_window, replay_window

        program = assemble("marker 1\nnop\nmarker 2\nhalt")
        trace = record_window(program, end=(2, 1))
        with pytest.raises(TraceFormatError, match="out of order"):
            replay_window(trace, begin=(2, 1), end=(1, 1), program=program)

    def test_prewarm_requires_program(self):
        from repro.isa.asm import assemble
        from repro.timing.runner import record_window, replay_window

        program = assemble("marker 1\nnop\nmarker 2\nhalt")
        trace = record_window(program, end=(2, 1))
        with pytest.raises(ValueError, match="program"):
            replay_window(trace, begin=(1, 1), end=(2, 1))
        replay_window(trace, begin=(1, 1), end=(2, 1), prewarm_code=False)
