"""Fault-tolerance tests for the experiment engine.

Drives the deterministic fault-injection seam (`repro.engine.faults`)
through every failure path the engine claims to survive: in-attempt
exceptions, SIGKILL'd pool workers (``BrokenProcessPool``), hung
windows against ``timeout``, retry exhaustion under each failure
policy, and crash-safe resume from a half-finished run.  The
load-bearing property throughout: a faulted-then-retried run produces
**byte-identical** payloads to a clean run.
"""

import json

import pytest

from repro.engine import (
    EngineConfig,
    ExperimentEngine,
    InjectedWorkerFault,
    ResultCache,
    RunRecorder,
    TraceStore,
    WindowFailure,
    WindowSpec,
    completed_keys,
    is_failure,
    read_run_log,
    should_inject,
)


def _specs():
    """A cheap mixed batch (accuracy + timing windows)."""
    from repro.experiments import accuracy_window_spec, microbench_window_spec
    from repro.workloads import get_workload

    return [
        accuracy_window_spec(get_workload("fop").spec, 1 << 10,
                             ("random",), 0.003, seed=0),
        accuracy_window_spec(get_workload("antlr").spec, 1 << 10,
                             ("sw",), 0.003, seed=1),
        microbench_window_spec(500, "full-dup", seed=1, kind="brr",
                               interval=64, lfsr_seed=64),
        microbench_window_spec(500, "none", seed=1),
    ]


def _canonical(payloads):
    return [json.dumps(p, sort_keys=True) for p in payloads]


class TestInjectionDeterminism:
    def test_pure_function_of_key_and_attempt(self):
        assert should_inject("abc", 0, 0.5) == should_inject("abc", 0, 0.5)

    def test_rate_zero_never_rate_one_bounds(self):
        keys = [f"key{i}" for i in range(200)]
        assert not any(should_inject(k, 0, 0.0) for k in keys)
        hits = sum(should_inject(k, 0, 0.3) for k in keys)
        # Deterministic, but statistically ~60 of 200; wide tolerance.
        assert 30 <= hits <= 90

    def test_retried_attempt_hashes_differently(self):
        # For a fair rate the fault schedule must vary per attempt,
        # otherwise retry could never converge.
        keys = [f"key{i}" for i in range(100)]
        flips = sum(should_inject(k, 0, 0.5) != should_inject(k, 1, 0.5)
                    for k in keys)
        assert flips > 20


class TestSerialFaultRecovery:
    def test_retried_run_is_byte_identical(self, tmp_path):
        specs = _specs()
        clean = ExperimentEngine(cache=ResultCache(tmp_path / "clean"))
        faulty = ExperimentEngine(
            config=EngineConfig(fault_rate=0.4, retries=8, backoff=0.0),
            cache=ResultCache(tmp_path / "faulty"))

        clean_payloads = clean.run(specs)
        faulty_payloads = faulty.run(specs)

        assert _canonical(clean_payloads) == _canonical(faulty_payloads)
        summary = faulty.summary()
        assert summary["retries"] > 0
        assert summary["failures"] == 0

    def test_attempts_logged_per_window(self, tmp_path):
        specs = _specs()[:2]
        recorder = RunRecorder(tmp_path / "run.jsonl")
        engine = ExperimentEngine(
            config=EngineConfig(fault_rate=0.4, retries=8, backoff=0.0),
            cache=ResultCache(tmp_path / "c"), recorder=recorder)
        engine.run(specs)
        _, records = read_run_log(tmp_path / "run.jsonl")
        assert all(r["attempts"] >= 1 for r in records)
        assert sum(r["attempts"] - 1 for r in records) \
            == engine.summary()["retries"]

    def test_raise_policy_fails_fast(self, tmp_path):
        engine = ExperimentEngine(
            config=EngineConfig(fault_rate=0.999, retries=8,
                                failure_policy="raise"),
            cache=ResultCache(tmp_path))
        with pytest.raises(InjectedWorkerFault):
            engine.run(_specs()[:1])

    def test_retry_exhaustion_raises_under_retry_policy(self, tmp_path):
        engine = ExperimentEngine(
            config=EngineConfig(fault_rate=0.999, retries=2, backoff=0.0,
                                failure_policy="retry"),
            cache=ResultCache(tmp_path))
        with pytest.raises(InjectedWorkerFault):
            engine.run(_specs()[:1])

    def test_skip_policy_returns_typed_placeholder(self, tmp_path):
        spec = _specs()[0]
        engine = ExperimentEngine(
            config=EngineConfig(fault_rate=0.999, retries=2, backoff=0.0,
                                failure_policy="skip"),
            cache=ResultCache(tmp_path))
        payload = engine.run([spec])[0]
        assert is_failure(payload)
        assert isinstance(payload, WindowFailure)
        assert payload.key == spec.cache_key
        assert payload.attempts == 3
        assert "injected fault" in payload.error
        # Duck-typed payload access answers None, not KeyError.
        assert payload.get("cycles") is None
        assert engine.summary()["failures"] == 1
        # Failures are never cached: a healthy rerun must recompute.
        assert engine.cache.get(spec) is None

    def test_non_transient_error_is_never_retried(self, tmp_path):
        recorder = RunRecorder()
        engine = ExperimentEngine(
            config=EngineConfig(retries=5, failure_policy="skip"),
            cache=ResultCache(tmp_path), recorder=recorder)
        payload = engine.run([WindowSpec.make("no-such-kind", x=1)])[0]
        assert is_failure(payload)
        assert payload.attempts == 1  # ValueError burned no retries


class TestPoolFaultRecovery:
    def test_injected_exceptions_are_byte_identical(self, tmp_path):
        specs = _specs()
        clean = ExperimentEngine(cache=ResultCache(tmp_path / "clean"))
        faulty = ExperimentEngine(
            config=EngineConfig(jobs=2, fault_rate=0.4, retries=8,
                                backoff=0.0),
            cache=ResultCache(tmp_path / "faulty"))
        assert _canonical(clean.run(specs)) == _canonical(faulty.run(specs))
        assert faulty.summary()["failures"] == 0

    def test_sigkilled_worker_does_not_abort_run(self, tmp_path,
                                                 monkeypatch):
        """A worker dying mid-window (BrokenProcessPool) rebuilds the
        pool and retries; the run completes byte-identically."""
        monkeypatch.setenv("REPRO_FAULT_MODE", "kill")
        specs = _specs()
        clean = ExperimentEngine(cache=ResultCache(tmp_path / "clean"))
        faulty = ExperimentEngine(
            # A pool crash cannot be attributed to one window, so every
            # in-flight window burns an attempt; budget accordingly.
            config=EngineConfig(jobs=2, fault_rate=0.25, retries=25,
                                backoff=0.0),
            cache=ResultCache(tmp_path / "faulty"))
        assert _canonical(clean.run(specs)) == _canonical(faulty.run(specs))
        assert faulty.summary()["failures"] == 0

    def test_hung_window_times_out_and_skips(self, tmp_path, monkeypatch):
        """A hung worker trips the per-window deadline; with ``skip``
        and no retries the window degrades to a placeholder instead of
        blocking the run forever."""
        monkeypatch.setenv("REPRO_FAULT_MODE", "hang")
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "60")
        specs = _specs()[:2]
        engine = ExperimentEngine(
            config=EngineConfig(jobs=2, fault_rate=0.999, retries=0,
                                timeout=0.5, failure_policy="skip"),
            cache=ResultCache(tmp_path))
        payloads = engine.run(specs)
        assert all(is_failure(p) for p in payloads)
        assert all("exceeded 0.5s" in p.error for p in payloads)
        assert engine.summary()["failures"] == 2

    def test_completed_windows_survive_a_crashed_batch(self, tmp_path):
        """Crash-safe incremental progress: windows cached before a
        fatal failure stay durable, so the retried run only re-executes
        the rest (the resume invariant)."""
        base = _specs()
        # Order so the batch completes some windows before the first
        # deterministic fault (rate 0.4 faults the accuracy windows'
        # first attempts, not the microbench ones).
        specs = [base[2], base[3], base[0]]
        cache = ResultCache(tmp_path / "c")
        doomed = ExperimentEngine(
            config=EngineConfig(fault_rate=0.4, retries=0,
                                failure_policy="raise"),
            cache=cache)
        with pytest.raises(InjectedWorkerFault):
            doomed.run(specs)
        survivors = sum(cache.get(s) is not None for s in specs)
        assert 0 < survivors < len(specs)

        healthy = ExperimentEngine(cache=cache)
        healthy.run(specs)
        assert healthy.summary()["cache_hits"] == survivors


class TestResumeFromRunLog:
    def test_resume_counts_previously_completed_windows(self, tmp_path):
        specs = _specs()
        cache_dir = tmp_path / "cache"
        log = tmp_path / "run.jsonl"

        first = ExperimentEngine(cache=ResultCache(cache_dir),
                                 recorder=RunRecorder(log))
        first.run(specs[:2])  # "interrupted" after two windows

        resumed = ExperimentEngine(
            config=EngineConfig(resume_from=str(log)),
            cache=ResultCache(cache_dir), recorder=RunRecorder(log))
        resumed.run(specs)

        assert resumed.resume_keys == {s.cache_key for s in specs[:2]}
        summary = resumed.summary()
        assert summary["cache_hits"] == 2
        assert summary["cache_misses"] == 2
        assert summary["resumed"] == 2

    def test_completed_keys_ignores_failures(self):
        records = [{"key": "a", "cache": "miss"},
                   {"key": "b", "cache": "hit"},
                   {"key": "c", "cache": "failed"}]
        assert completed_keys(records) == {"a", "b"}

    def test_read_run_log_tolerates_torn_tail(self, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text('{"record_type": "run_meta", "command": "x", '
                       '"argv": []}\n'
                       '{"key": "a", "cache": "miss"}\n'
                       '{"key": "b", "ca')  # torn mid-write
        meta, records = read_run_log(log)
        assert meta["command"] == "x"
        assert [r["key"] for r in records] == ["a"]

    def test_read_run_log_missing_file(self, tmp_path):
        meta, records = read_run_log(tmp_path / "nope.jsonl")
        assert meta is None and records == []


class TestTracePages:
    """Shared-memory trace pages: the parent registry is the single
    unlink authority, so neither a clean pool shutdown nor a
    fault-forced pool rebuild may leak ``/dev/shm`` segments."""

    def _timing_specs(self):
        from repro.experiments import microbench_window_spec

        return [
            microbench_window_spec(500, "full-dup", seed=1, kind="brr",
                                   interval=64, lfsr_seed=64),
            microbench_window_spec(500, "full-dup", seed=2, kind="cbs",
                                   interval=64),
        ]

    def _warm_store(self, tmp_path, specs):
        """Record the traces serially so the pooled run can page them."""
        store = TraceStore(tmp_path / "traces", enabled=True)
        warm = ExperimentEngine(cache=ResultCache(tmp_path / "warm"),
                                trace_store=store)
        return store, warm.run(specs)

    def test_shared_trace_equivalent_then_unlinked(self):
        from repro.engine import shm_pages
        from repro.engine.windows import MATERIALS
        from repro.timing.runner import record_window

        spec = self._timing_specs()[0]
        materials = MATERIALS[spec.kind](spec.params_dict())
        trace = record_window(materials["program"], materials["end"],
                              brr_unit=materials["brr_unit"],
                              setup=materials["setup"])
        registry = shm_pages.TracePageRegistry()
        name = registry.publish("key", trace)
        if name is None:
            pytest.skip("shared memory unavailable on this platform")
        shared = shm_pages.attach(name)
        assert shared is not None
        assert len(shared) == len(trace)
        assert shared.markers == trace.markers
        assert shared.nbytes == trace.nbytes
        ref, cols = trace.columns(), shared.columns()
        assert list(cols.pc) == list(ref.pc)
        assert list(cols.word_id) == list(ref.word_id)
        assert list(cols.next_pc) == list(ref.next_pc)
        assert bytes(cols.taken) == bytes(ref.taken)
        assert list(cols.mem_addr) == list(ref.mem_addr)
        assert cols.instrs == ref.instrs
        assert list(shared.records()) == list(trace.records())
        shared.close()
        assert registry.unlink_all() == 1
        assert shm_pages.attach(name) is None  # gone for good
        assert registry.unlink_all() == 0      # and idempotent

    def test_pooled_run_with_pages_leaves_no_segments(self, tmp_path):
        from repro.engine import shm_pages

        before = set(shm_pages.leaked_pages())
        specs = self._timing_specs()
        store, serial_payloads = self._warm_store(tmp_path, specs)
        pooled = ExperimentEngine(
            config=EngineConfig(jobs=2),
            cache=ResultCache(tmp_path / "pooled"),
            trace_store=store)
        assert _canonical(pooled.run(specs)) == _canonical(serial_payloads)
        assert set(shm_pages.leaked_pages()) <= before

    def test_pool_rebuild_does_not_leak_pages(self, tmp_path, monkeypatch):
        from repro.engine import shm_pages

        monkeypatch.setenv("REPRO_FAULT_MODE", "kill")
        before = set(shm_pages.leaked_pages())
        specs = self._timing_specs()
        store, clean_payloads = self._warm_store(tmp_path, specs)
        faulty = ExperimentEngine(
            config=EngineConfig(jobs=2, fault_rate=0.4, retries=25,
                                backoff=0.0),
            cache=ResultCache(tmp_path / "faulty"),
            trace_store=store)
        assert _canonical(faulty.run(specs)) == _canonical(clean_payloads)
        assert faulty.summary()["failures"] == 0
        assert set(shm_pages.leaked_pages()) <= before
