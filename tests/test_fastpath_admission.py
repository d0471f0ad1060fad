"""Vector-kernel admission: which windows the solver is allowed to try.

Admission runs before any per-window pass of
:mod:`repro.timing.fastpath_vec`.  Dense control-flow windows (the
Figure-13 microbenchmarks) and shared-LFSR brr windows go straight to
the loop kernel, which replays on the memoised event passes alone;
sparse ones (the Figure-12 JVM windows) are solved.
Every route stays byte-identical to the golden model, and every
route is reported — by the kernel, the replay telemetry, each
window's ledger record and ``engine.summary()``.
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
from repro.experiments.fig12 import jvm_window_spec
from repro.experiments.fig13 import microbench_window_spec
from repro.timing import fastpath_vec
from repro.timing.config import PAPER_CONFIG, TimingConfig
from repro.timing.runner import (
    _replay_solver,
    record_window,
    replay_window,
)

SHARED_LFSR_CONFIG = PAPER_CONFIG.with_overrides(brr_shared_lfsr=True)


def _record(spec):
    materials = MATERIALS[spec.kind](spec.params_dict())
    trace = record_window(materials["program"], materials["end"],
                          brr_unit=materials["brr_unit"],
                          setup=materials["setup"])
    return materials, trace


def _replay(replay, materials, trace, config=None, **kwargs):
    return replay(trace, materials["begin"], materials["end"],
                  config=config, fast_forward=materials["fast_forward"],
                  program=materials["program"], **kwargs)


def _memo_kinds(trace):
    """First elements of the tuple keys in the trace's per-trace memo
    (``"cache"``, ``"branch"``, ``"prep"``)."""
    return {key[0] for key in trace.columns().vec_cache or {}
            if isinstance(key, tuple)}


@pytest.fixture(scope="module")
def microbench():
    return _record(microbench_window_spec(600, "full-dup", seed=0,
                                          kind="brr", interval=1024))


class TestAdmission:
    def test_dense_microbench_window_skips_prep(self, microbench,
                                                solver_calls):
        materials, trace = microbench
        trace.columns().vec_cache = None
        golden = _replay(replay_window, materials, trace, fast="off")
        fast = _replay(replay_window, materials, trace, fast="vector")
        assert fast.stats == golden.stats
        assert (fast.telemetry["timing_kernel"],
                fast.telemetry["timing_route"]) == ("loop", "dense")
        # The perfbench mirror follows the returned kernel.
        assert fastpath_vec.last_kernel == "loop"
        # No prep bundle: the loop kernel runs on the event passes alone.
        assert _memo_kinds(trace) == {"cache", "branch"}
        assert solver_calls == []

    def test_dense_replays_share_the_event_passes(self, microbench,
                                                  solver_calls):
        """Two configs with one cache geometry and predictor shape run
        each event pass once between them."""
        materials, trace = microbench
        trace.columns().vec_cache = None
        for config in (PAPER_CONFIG, PAPER_CONFIG.with_overrides(
                rob_entries=16, issue_width=2)):
            golden = _replay(replay_window, materials, trace, config=config,
                             fast="off")
            fast = _replay(replay_window, materials, trace, config=config,
                           fast="vector")
            assert fast.stats == golden.stats
            assert (fast.telemetry["timing_kernel"],
                    fast.telemetry["timing_route"]) == ("loop", "dense")
        keys = [key[0] for key in trace.columns().vec_cache
                if isinstance(key, tuple)]
        assert sorted(keys) == ["branch", "cache"]
        assert solver_calls == []

    def test_figure12_scorecard_window_is_solved(self, solver_calls):
        materials, trace = _record(
            jvm_window_spec("jython", "none", scale=1.0))
        golden = _replay(replay_window, materials, trace, fast="off")
        fast = _replay(replay_window, materials, trace, fast="vector")
        assert fast.stats == golden.stats
        assert (fast.telemetry["timing_kernel"],
                fast.telemetry["timing_route"]) == ("vector", "admitted")
        assert fastpath_vec.last_kernel == "vector"
        assert "prep" in _memo_kinds(trace)
        assert len(solver_calls) == 1

    def test_shared_lfsr_is_refused_even_past_the_cost_check(
            self, microbench, solver_calls):
        materials, trace = microbench
        trace.columns().vec_cache = None
        golden = _replay(replay_window, materials, trace,
                         config=SHARED_LFSR_CONFIG, fast="off")
        fast = _replay(_replay_solver, materials, trace,
                       config=SHARED_LFSR_CONFIG)
        assert fast.stats == golden.stats
        assert (fast.telemetry["timing_kernel"],
                fast.telemetry["timing_route"]) == ("loop", "shared_lfsr")
        assert _memo_kinds(trace) == {"cache", "branch"}
        assert solver_calls == []

    def test_solver_entry_skips_the_cost_check(self, microbench,
                                               solver_calls):
        materials, trace = microbench
        golden = _replay(replay_window, materials, trace, fast="off")
        fast = _replay(_replay_solver, materials, trace)
        assert fast.stats == golden.stats
        assert fast.telemetry["timing_route"] in ("admitted", "envelope")
        assert len(solver_calls) == 1


class TestMemoBound:
    def test_bound_holds_after_insertion(self):
        cache = {}
        for i in range(fastpath_vec.VEC_CACHE_ENTRIES + 3):
            fastpath_vec._remember(cache, ("k", i), i)
            assert len(cache) <= fastpath_vec.VEC_CACHE_ENTRIES
        assert len(cache) == fastpath_vec.VEC_CACHE_ENTRIES
        assert ("k", 0) not in cache  # oldest evicted first
        assert ("k", fastpath_vec.VEC_CACHE_ENTRIES + 2) in cache

    def test_config_sweep_never_exceeds_bound(self, microbench):
        materials, trace = microbench
        trace.columns().vec_cache = None
        for rob in range(8, 8 + 2 * fastpath_vec.VEC_CACHE_ENTRIES, 2):
            _replay(_replay_solver, materials, trace,
                    config=TimingConfig(rob_entries=rob))
            assert len(trace.columns().vec_cache) \
                <= fastpath_vec.VEC_CACHE_ENTRIES


class TestEngineAttribution:
    def _engine(self, tmp_path, name, fast):
        return ExperimentEngine(
            config=EngineConfig(jobs=1, fast=fast),
            cache=ResultCache(tmp_path / f"cache-{name}", enabled=False),
            recorder=RunRecorder(tmp_path / f"{name}.jsonl"),
            trace_store=TraceStore(tmp_path / f"traces-{name}", enabled=True),
        )

    def _specs(self):
        # One functional key, two timing configs: the engine runs them
        # as one group, and each member's own replay verdict is what
        # the ledger must carry.
        return [microbench_window_spec(300, "full-dup", seed=0, kind="brr",
                                       interval=256, config=config)
                for config in (PAPER_CONFIG, SHARED_LFSR_CONFIG)]

    def test_ledger_and_summary_carry_kernel_and_route(self, tmp_path):
        fast_engine = self._engine(tmp_path, "fast", fast="vector")
        golden_engine = self._engine(tmp_path, "golden", fast="off")
        fast_payloads = fast_engine.run(self._specs())
        golden_payloads = golden_engine.run(self._specs())
        assert json.dumps(fast_payloads, sort_keys=True) \
            == json.dumps(golden_payloads, sort_keys=True)

        lines = [json.loads(line) for line
                 in (tmp_path / "fast.jsonl").read_text().splitlines()]
        assert [line["key"] for line in lines] \
            == [spec.cache_key for spec in self._specs()]
        assert [(line["timing_kernel"], line["timing_route"])
                for line in lines] == [("loop", "dense"),
                                       ("loop", "shared_lfsr")]
        summary = fast_engine.summary()
        assert summary["timing_kernels"] == {"loop": 2}
        assert summary["timing_routes"] == {"dense": 1, "shared_lfsr": 1}

        golden = golden_engine.summary()
        assert golden["timing_kernels"] == {"golden": 2}
        assert golden["timing_routes"] == {}
