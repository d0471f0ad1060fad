"""Golden equivalence: the batched fastpath kernel vs the lock-step
reference, on every window the scorecard grades.

The fast path (:mod:`repro.timing.fastpath`) is a pure speed change —
its contract is that every :class:`~repro.timing.pipeline.TimingStats`
is byte-identical to the per-record golden loop.  These tests pin that
for all 15 Figure-12 cells and 4 Figure-13 combos, pin the
``REPRO_FAST`` knob (read by ``EngineConfig.from_env`` alone) and the
engine's path/throughput telemetry, and check the columnar trace
decoder against the record iterator it replaces.
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
from repro.engine.windows import MATERIALS
from repro.experiments.bench_timing import scorecard_bench_specs
from repro.experiments.fig13 import microbench_window_spec
from repro.timing.config import TimingConfig
from repro.timing.fastpath import run_fastpath
from repro.timing.runner import (
    WindowResult,
    _replay_solver,
    _resolve_window,
    record_window,
    replay_window,
    replay_window_batch,
)

SCORECARD = scorecard_bench_specs()

#: Both fast kernels must meet the same byte-identity contract.  The
#: ``loop`` cases call :func:`run_fastpath` directly; the ``vector``
#: cases enter past admission's cost check, so the dense Figure-13
#: windows production routes to the loop kernel still reach the solver
#: (which may then delegate outside its envelope).
KERNELS = ("loop", "vector")


def _replay(kernel, trace, begin, end, config=None, fast_forward=None,
            program=None, prewarm_code=True):
    if kernel == "vector":
        return _replay_solver(trace, begin, end, config=config,
                              fast_forward=fast_forward, program=program,
                              prewarm_code=prewarm_code)
    i_skip, i_begin, i_end = _resolve_window(trace, begin, end,
                                             fast_forward)
    stats = run_fastpath(trace, i_skip, i_begin, i_end, config=config,
                         program=program, prewarm_code=prewarm_code)
    return WindowResult(stats=stats, total_steps=i_end + 1)


def _record(spec):
    materials = MATERIALS[spec.kind](spec.params_dict())
    trace = record_window(materials["program"], materials["end"],
                          brr_unit=materials["brr_unit"],
                          setup=materials["setup"])
    return materials, trace


def _config(spec):
    config = spec.params_dict().get("config")
    return None if config is None else TimingConfig.from_dict(config)


#: Scorecard windows as graded, plus the two snapshot edge cases: a
#: window that never steps (fast-forward, begin and end all at the end
#: point) and a baseline at the fast-forward point (``i_begin ==
#: i_skip``), whose stats keep the code pre-warm's L2 misses.  The
#: latter is a Figure-12 window, which the solver admits.
WINDOWS = [(spec, None) for spec in SCORECARD] + [
    (SCORECARD[-1], "empty"), (SCORECARD[0], "ff-at-begin")]


class TestScorecardEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "spec,edge", WINDOWS,
        ids=[spec.label() + (f"-{edge}" if edge else "")
             for spec, edge in WINDOWS])
    def test_fastpath_byte_identical(self, spec, edge, kernel,
                                     solver_calls):
        materials, trace = _record(spec)
        begin, fast_forward = materials["begin"], materials["fast_forward"]
        if edge == "empty":
            begin = fast_forward = materials["end"]
        elif edge == "ff-at-begin":
            fast_forward = begin
        golden = replay_window(trace, begin, materials["end"],
                               config=_config(spec),
                               fast_forward=fast_forward,
                               program=materials["program"], fast="off")
        assert golden.telemetry["timing_path"] == "golden"
        fast = _replay(kernel, trace, begin, materials["end"],
                       config=_config(spec), fast_forward=fast_forward,
                       program=materials["program"])
        info = fast.telemetry
        if kernel == "vector":
            assert info["timing_path"] == "fast"
            assert edge == "empty" or info["replay_records_per_s"] > 0
        assert fast.stats == golden.stats
        assert fast.total_steps == golden.total_steps
        if edge == "empty":
            assert fast.stats.instructions == 0
        # Every window that steps reaches the solver on the vector case.
        assert len(solver_calls) == (kernel == "vector" and edge != "empty")


class TestBatchedReplay:
    """One kernel invocation replaying several TimingConfigs of the
    same functional trace == N sequential replays, byte for byte."""

    CONFIGS = [TimingConfig(), TimingConfig(rob_entries=16),
               TimingConfig(issue_width=2, phys_regs=40)]

    def _spec(self):
        return microbench_window_spec(500, "full-dup", seed=1, kind="cbs",
                                      interval=64)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batch_matches_sequential(self, kernel, solver_calls):
        spec = self._spec()
        materials, trace = _record(spec)
        windows = [{"begin": materials["begin"], "end": materials["end"],
                    "config": config,
                    "fast_forward": materials["fast_forward"]}
                   for config in self.CONFIGS]
        if kernel == "vector":
            batched = [_replay_solver(trace, window["begin"], window["end"],
                                      config=window["config"],
                                      fast_forward=window["fast_forward"],
                                      program=materials["program"])
                       for window in windows]
            # Each window's telemetry counts its own records.
            i_skip, _, i_end = _resolve_window(
                trace, materials["begin"], materials["end"],
                materials["fast_forward"])
            for result in batched:
                assert result.telemetry["replay_records"] == i_end - i_skip
                assert result.telemetry["timing_path"] == "fast"
        else:
            batched = [_replay(kernel, trace, window["begin"], window["end"],
                               config=window["config"],
                               fast_forward=window["fast_forward"],
                               program=materials["program"])
                       for window in windows]
        assert len(solver_calls) == (len(windows) if kernel == "vector"
                                     else 0)
        for window, result in zip(windows, batched):
            golden = replay_window(trace, window["begin"], window["end"],
                                   config=window["config"],
                                   fast_forward=window["fast_forward"],
                                   program=materials["program"], fast="off")
            assert result.stats == golden.stats
            assert result.total_steps == golden.total_steps

    def test_batch_distinguishes_configs(self):
        # Guard against a batch accidentally replaying one config N
        # times: the shrunken-ROB member must report more cycles.
        spec = self._spec()
        materials, trace = _record(spec)
        windows = [{"begin": materials["begin"], "end": materials["end"],
                    "config": config,
                    "fast_forward": materials["fast_forward"]}
                   for config in self.CONFIGS]
        results = replay_window_batch(trace, windows,
                                      program=materials["program"],
                                      fast="vector")
        assert results[1].stats.cycles > results[0].stats.cycles

    def test_batch_is_one_replay_per_window(self):
        """The batch form is a loop over :func:`replay_window`: same
        results, and each result carries its own window's telemetry."""
        spec = self._spec()
        materials, trace = _record(spec)
        windows = [{"begin": materials["begin"], "end": materials["end"],
                    "config": config,
                    "fast_forward": materials["fast_forward"]}
                   for config in self.CONFIGS]
        for fast in ("vector", "off"):
            results = replay_window_batch(trace, windows,
                                          program=materials["program"],
                                          fast=fast)
            singles = [replay_window(trace, window["begin"], window["end"],
                                     config=window["config"],
                                     fast_forward=window["fast_forward"],
                                     program=materials["program"],
                                     fast=fast)
                       for window in windows]
            assert results == singles
            assert [r.telemetry["timing_kernel"] for r in results] \
                == [r.telemetry["timing_kernel"] for r in singles]
        assert replay_window_batch(trace, [],
                                   program=materials["program"]) == []


class TestFastpathKnob:
    """``REPRO_FAST`` is read by ``EngineConfig.from_env`` alone; the
    timing layer only follows the ``fast`` argument the engine passes
    (unset: ``vector``)."""

    def test_env_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST", raising=False)
        assert EngineConfig.from_env().fast == "vector"

    @pytest.mark.parametrize("value,expected", [
        ("vector", True), ("off", False),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_FAST", value)
        assert (EngineConfig.from_env().fast != "off") is expected

    @pytest.mark.parametrize("value,mode", [
        ("vector", "vector"), ("off", "off"),
    ])
    def test_env_selects_kernel_mode(self, monkeypatch, value, mode):
        monkeypatch.setenv("REPRO_FAST", value)
        assert EngineConfig.from_env().fast == mode

    @pytest.mark.parametrize("value",
                             ["0", "1", "false", "no", "true", "loop"])
    def test_retired_boolean_spellings_rejected(self, monkeypatch, value):
        """Retired spellings and the retired user-set ``loop`` mode are
        refused, never mapped to another kernel."""
        monkeypatch.setenv("REPRO_FAST", value)
        with pytest.raises(ValueError, match="REPRO_FAST"):
            EngineConfig.from_env()

    def test_retired_loop_mode_rejected_by_config(self):
        with pytest.raises(ValueError, match="fast"):
            EngineConfig(fast="loop")

    def test_bad_mode_name_rejected(self):
        from repro.timing.fastpath import normalize_fast_mode

        with pytest.raises(ValueError):
            normalize_fast_mode("warp")

    def test_env_is_not_read_below_the_config(self, monkeypatch):
        """An unset ``fast`` means ``vector`` whatever the environment
        says: only ``EngineConfig.from_env`` reads ``REPRO_FAST``."""
        spec = microbench_window_spec(300, "full-dup", seed=0, kind="brr",
                                      interval=256)
        materials, trace = _record(spec)
        monkeypatch.setenv("REPRO_FAST", "off")
        result = replay_window(trace, materials["begin"], materials["end"],
                               program=materials["program"])
        assert result.telemetry["timing_path"] == "fast"

    @pytest.mark.parametrize("value", [False, True])
    def test_boolean_override_rejected(self, value):
        """The per-call ``fast`` argument takes mode names only; an
        on/off boolean is refused, never mapped to a kernel."""
        from repro.timing.fastpath import normalize_fast_mode

        with pytest.raises(ValueError):
            normalize_fast_mode(value)

    def test_override_wins_and_restores(self):
        """A per-call ``fast`` wins for that call only: no mode is left
        behind for the next call, whose unset ``fast`` means vector."""
        spec = microbench_window_spec(300, "full-dup", seed=0, kind="brr",
                                      interval=256)
        materials, trace = _record(spec)

        def path(fast):
            return replay_window(
                trace, materials["begin"], materials["end"],
                program=materials["program"],
                fast=fast).telemetry["timing_path"]

        assert [path("off"), path("vector"), path(None), path("off")] \
            == ["golden", "fast", "fast", "golden"]

    def test_replay_honours_env(self, monkeypatch):
        """``REPRO_FAST=off`` reaches replay through the engine config
        (``from_env`` -> the ``fast`` argument), not a second reader."""
        spec = microbench_window_spec(300, "full-dup", seed=0, kind="brr",
                                      interval=256)
        materials, trace = _record(spec)
        monkeypatch.setenv("REPRO_FAST", "off")
        result = replay_window(trace, materials["begin"], materials["end"],
                               program=materials["program"],
                               fast=EngineConfig.from_env().fast)
        assert result.telemetry["timing_path"] == "golden"

    def test_replay_rejects_boolean_fast(self):
        spec = microbench_window_spec(300, "full-dup", seed=0, kind="brr",
                                      interval=256)
        materials, trace = _record(spec)
        with pytest.raises(ValueError):
            replay_window(trace, materials["begin"], materials["end"],
                          program=materials["program"], fast=False)


class TestEngineTelemetry:
    def _engine(self, tmp_path, name, fast):
        return ExperimentEngine(
            config=EngineConfig(jobs=1, fast=fast),
            cache=ResultCache(tmp_path / f"cache-{name}", enabled=False),
            recorder=RunRecorder(tmp_path / f"{name}.jsonl"),
            trace_store=TraceStore(tmp_path / f"traces-{name}", enabled=True),
        )

    def test_jsonl_logs_path_and_throughput(self, tmp_path):
        spec = microbench_window_spec(300, "full-dup", seed=0, kind="cbs",
                                      interval=256)
        fast_engine = self._engine(tmp_path, "fast", fast="vector")
        golden_engine = self._engine(tmp_path, "golden", fast="off")
        fast_payload = fast_engine.run([spec])[0]
        golden_payload = golden_engine.run([spec])[0]
        assert json.dumps(fast_payload, sort_keys=True) \
            == json.dumps(golden_payload, sort_keys=True)

        fast_line = json.loads((tmp_path / "fast.jsonl").read_text())
        golden_line = json.loads((tmp_path / "golden.jsonl").read_text())
        assert fast_line["timing_path"] == "fast"
        assert golden_line["timing_path"] == "golden"
        assert fast_line["replay_records_per_s"] > 0
        assert fast_engine.summary()["fastpath_windows"] == 1
        assert golden_engine.summary()["goldenpath_windows"] == 1

    def test_trace_handle_cache_shares_decoded_columns(self, tmp_path):
        from repro.engine.tracestore import functional_key

        spec = microbench_window_spec(300, "full-dup", seed=0, kind="brr",
                                      interval=256)
        engine = self._engine(tmp_path, "handles", fast="vector")
        engine.run([spec])
        key = functional_key(spec.kind, spec.params_dict())
        first = engine.trace_store.load(key)
        second = engine.trace_store.load(key)
        assert first is second  # same handle -> columns decoded once

    def test_cold_run_replays_the_recorders_columns(self, tmp_path,
                                                    monkeypatch):
        """A cold miss replays from the columns its recording filled,
        so it decodes nothing; a new engine on the same disk store
        (fresh memory tier) decodes each stored trace exactly once."""
        from repro.sim.trace_io import RecordedTrace

        decoded = []
        columns = RecordedTrace.columns

        def counting(self, *args, **kwargs):
            if self._columns is None:
                decoded.append(self.source)
            return columns(self, *args, **kwargs)

        monkeypatch.setattr(RecordedTrace, "columns", counting)
        specs = [microbench_window_spec(300, duplication, seed=0,
                                        kind="brr", interval=interval)
                 for duplication in ("full-dup", "no-dup")
                 for interval in (256, 1024)]

        def engine():
            return ExperimentEngine(
                config=EngineConfig(jobs=1, fast="vector"),
                cache=ResultCache(tmp_path / "cache", enabled=False),
                trace_store=TraceStore(tmp_path / "traces", enabled=True))

        cold = engine().run(specs)
        assert decoded == []
        warm = engine().run(specs)
        stored = sorted((tmp_path / "traces").rglob("*.trace"))
        assert len(stored) == 4
        assert sorted(decoded) == stored
        assert json.dumps(warm, sort_keys=True) \
            == json.dumps(cold, sort_keys=True)


class TestColumnarDecoder:
    def test_columns_match_records(self):
        spec = microbench_window_spec(300, "full-dup", seed=0, kind="brr",
                                      interval=256)
        _, trace = _record(spec)
        cols = trace.columns()
        records = list(trace.records())
        assert len(cols) == cols.n_records == len(records)
        assert not cols.has_trapped
        for i, record in enumerate(records):
            assert cols.pc[i] == record.pc
            assert cols.next_pc[i] == record.next_pc
            assert cols.taken[i] == int(record.taken)
            assert cols.instrs[cols.word_id[i]] == record.instr
            expected_mem = -1 if record.mem_addr is None else record.mem_addr
            assert cols.mem_addr[i] == expected_mem

    def test_columns_memoised(self):
        spec = microbench_window_spec(300, "no-dup", seed=0, kind="cbs",
                                      interval=256)
        _, trace = _record(spec)
        assert trace.columns() is trace.columns()

    def test_columns_rejects_garbage(self):
        from repro.sim.trace_io import RecordedTrace, TraceFormatError

        with pytest.raises(TraceFormatError):
            RecordedTrace(b"BRTRgarbage-that-is-not-a-trace").columns()
