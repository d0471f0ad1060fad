"""The circuit breaker around the shared backend tier.

Contract (``docs/serve.md``): every backend call gets a wall-clock
budget; exhausted calls retry with backoff; ``failures`` consecutive
exhausted calls open the breaker (calls then fail fast — the store
degrades to local-tiers-only); after a cooldown one half-open probe is
admitted, whose success closes the breaker.  Telemetry (state
transitions, shed counts) is visible via ``stats()``, and failed
pushes are remembered so ``flush()`` converges the corpus on drain.
"""

import time

import pytest

from repro.engine import EngineConfig, ResultCache
from repro.engine.cache import resolve_backend
from repro.engine.spec import WindowSpec
from repro.store import (
    BackendUnavailable,
    CircuitBreakerBackend,
    FilesystemBackend,
    maybe_wrap_breaker,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FlakyBackend(FilesystemBackend):
    """A filesystem backend with a switchable failure mode."""

    def __init__(self, root):
        super().__init__(root)
        self.mode = "ok"  # ok | error | hang
        self.hang_seconds = 0.5
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.mode == "error":
            raise OSError("injected")
        if self.mode == "hang":
            time.sleep(self.hang_seconds)

    def fetch(self, name, dest):
        self._maybe_fail()
        return super().fetch(name, dest)

    def push(self, name, src):
        self._maybe_fail()
        return super().push(name, src)


def _breaker(inner, **kwargs):
    clock = kwargs.pop("clock", FakeClock())
    defaults = dict(failures=2, reset_after=10.0, call_timeout=None,
                    retries=0, backoff=0.0, clock=clock,
                    sleep=lambda seconds: None)
    defaults.update(kwargs)
    return CircuitBreakerBackend(inner, **defaults), clock


def _seed_entry(root, name=b"payload"):
    path = root / "entry.bin"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(name)
    return path


class TestStateMachine:
    def test_consecutive_failures_open_the_breaker(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        breaker, _clock = _breaker(inner, failures=3)
        inner.mode = "error"
        for _ in range(2):
            assert breaker.fetch("x", tmp_path / "dest") is False
        assert breaker.state == "closed"
        breaker.fetch("x", tmp_path / "dest")
        assert breaker.state == "open"
        assert breaker.opens == 1

    def test_open_breaker_fails_fast_without_touching_backend(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        breaker, _clock = _breaker(inner)
        inner.mode = "error"
        breaker.fetch("x", tmp_path / "dest")
        breaker.fetch("x", tmp_path / "dest")
        assert breaker.state == "open"
        calls = inner.calls
        assert breaker.fetch("x", tmp_path / "dest") is False
        assert inner.calls == calls  # shed, not attempted
        assert breaker.fast_failed == 1

    def test_half_open_probe_success_closes(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        breaker, clock = _breaker(inner)
        src = _seed_entry(tmp_path)
        assert breaker.push("entry", src)  # published while healthy
        inner.mode = "error"
        breaker.fetch("entry", tmp_path / "dest")
        breaker.fetch("entry", tmp_path / "dest")
        assert breaker.state == "open"
        clock.advance(10.1)
        inner.mode = "ok"
        assert breaker.fetch("entry", tmp_path / "dest") is True
        assert breaker.state == "closed"
        assert breaker.closes == 1
        assert (tmp_path / "dest").read_bytes() == b"payload"

    def test_half_open_probe_failure_reopens(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        breaker, clock = _breaker(inner)
        inner.mode = "error"
        breaker.fetch("x", tmp_path / "dest")
        breaker.fetch("x", tmp_path / "dest")
        clock.advance(10.1)
        breaker.fetch("x", tmp_path / "dest")  # the probe, still failing
        assert breaker.state == "open"
        assert breaker.opens == 2
        # Cooldown restarted: still shedding before the next window.
        assert breaker.fetch("x", tmp_path / "dest") is False
        assert breaker.fast_failed >= 1

    def test_success_resets_the_consecutive_count(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        breaker, _clock = _breaker(inner, failures=2)
        src = _seed_entry(tmp_path)
        inner.mode = "error"
        breaker.push("entry", src)
        inner.mode = "ok"
        assert breaker.push("entry", src) is True
        inner.mode = "error"
        breaker.push("entry", src)
        assert breaker.state == "closed"  # 1 failure, not 2 consecutive

    def test_transitions_are_recorded(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        breaker, clock = _breaker(inner)
        inner.mode = "error"
        breaker.fetch("x", tmp_path / "dest")
        breaker.fetch("x", tmp_path / "dest")
        clock.advance(10.1)
        inner.mode = "ok"
        breaker.fetch("x", tmp_path / "dest")
        states = [t["to"] for t in breaker.breaker_stats()["transitions"]]
        assert states == ["open", "half_open", "closed"]


class TestCallPlumbing:
    def test_retries_then_succeeds_without_breaker_penalty(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        src = _seed_entry(tmp_path)
        inner.push("entry", src)
        attempts = []

        class OnceFlaky(FilesystemBackend):
            def fetch(self, name, dest):
                attempts.append(name)
                if len(attempts) == 1:
                    raise OSError("transient")
                return inner.fetch(name, dest)

        breaker, _clock = _breaker(OnceFlaky(tmp_path / "shared"), retries=1)
        assert breaker.fetch("entry", tmp_path / "dest") is True
        assert len(attempts) == 2
        assert breaker.failures == 0  # retried within the call

    def test_hung_call_is_abandoned_within_budget(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        inner.mode = "hang"
        inner.hang_seconds = 5.0
        breaker = CircuitBreakerBackend(inner, failures=1, call_timeout=0.2,
                                        retries=0, backoff=0.0)
        started = time.monotonic()
        assert breaker.fetch("x", tmp_path / "dest") is False
        elapsed = time.monotonic() - started
        assert elapsed < 2.0  # nowhere near the 5s hang
        assert breaker.timeouts == 1
        assert breaker.state == "open"

    def test_timeout_raises_backend_unavailable_internally(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        inner.mode = "hang"
        inner.hang_seconds = 5.0
        breaker = CircuitBreakerBackend(inner, call_timeout=0.1)
        with pytest.raises(BackendUnavailable):
            breaker._timed(inner.fetch, ("x", tmp_path / "dest"))

    def test_counters_delegate_to_inner_backend(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        breaker, _clock = _breaker(inner)
        assert breaker.counters is inner.counters

    def test_stats_carry_breaker_block(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        breaker, _clock = _breaker(inner)
        stats = breaker.stats()
        assert stats["breaker"]["state"] == "closed"
        assert "opens" in stats["breaker"]
        assert stats["backend"].startswith("breaker(fs:")

    def test_bad_arguments_rejected(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        with pytest.raises(ValueError):
            CircuitBreakerBackend(inner, failures=0)
        with pytest.raises(ValueError):
            CircuitBreakerBackend(inner, call_timeout=0)
        with pytest.raises(ValueError):
            CircuitBreakerBackend(inner, reset_after=-1)


class TestWrapping:
    def test_spec_backends_are_wrapped_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BREAKER", raising=False)
        backend = resolve_backend(f"fs:{tmp_path / 'shared'}", "results")
        assert isinstance(backend, CircuitBreakerBackend)
        assert isinstance(backend.inner, FilesystemBackend)

    def test_env_can_disable_wrapping(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BREAKER", "0")
        backend = resolve_backend(f"fs:{tmp_path / 'shared'}", "results",
                                  EngineConfig.from_env().breaker)
        assert isinstance(backend, FilesystemBackend)

    def test_live_backend_instances_pass_through(self, tmp_path):
        live = FilesystemBackend(tmp_path / "shared")
        assert resolve_backend(live, "results") is live

    def test_maybe_wrap_is_idempotent(self, tmp_path):
        breaker, _clock = _breaker(FlakyBackend(tmp_path / "shared"))
        assert maybe_wrap_breaker(breaker, True) is breaker
        assert maybe_wrap_breaker(None, True) is None

    def test_env_knobs_tune_the_breaker(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BREAKER_FAILURES", "7")
        monkeypatch.setenv("REPRO_BREAKER_RESET", "1.5")
        monkeypatch.setenv("REPRO_BREAKER_TIMEOUT", "0.25")
        backend = resolve_backend(f"fs:{tmp_path / 'shared'}", "results",
                                  True)
        assert backend.failure_threshold == 7
        assert backend.reset_after == 1.5
        assert backend.call_timeout == 0.25


class TestStoreDegradation:
    """A flaky/hostile backend degrades the store, never the request."""

    def _cache(self, tmp_path, backend):
        return ResultCache(tmp_path / "cache", backend=backend)

    def _spec(self):
        return WindowSpec(kind="probe", params=(("value", 1),))

    def test_raising_backend_is_contained_on_put_and_get(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        inner.mode = "error"
        cache = self._cache(tmp_path, inner)  # no breaker: worst case
        spec = self._spec()
        assert cache.put(spec, {"answer": 42}) is True  # local write lands
        assert cache.get(spec) == {"answer": 42}

    def test_failed_pushes_flush_once_backend_recovers(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        breaker, clock = _breaker(inner, failures=1)
        cache = self._cache(tmp_path, breaker)
        spec = self._spec()
        inner.mode = "error"
        cache.put(spec, {"answer": 42})
        assert breaker.state == "open"
        assert cache.stats()["push_pending"] == 1
        inner.mode = "ok"
        clock.advance(10.1)
        report = cache.flush()
        assert report == {"pending": 1, "published": 1}
        assert cache.stats()["push_pending"] == 0
        assert breaker.state == "closed"
        # The entry actually reached the shared corpus.
        pushed = list((tmp_path / "shared").rglob("*.json"))
        assert len(pushed) == 1

    def test_open_breaker_means_local_tiers_only(self, tmp_path):
        inner = FlakyBackend(tmp_path / "shared")
        breaker, _clock = _breaker(inner, failures=1)
        cache = self._cache(tmp_path, breaker)
        spec = self._spec()
        inner.mode = "error"
        cache.put(spec, {"answer": 42})
        assert breaker.state == "open"
        calls = inner.calls
        assert cache.get(spec) == {"answer": 42}  # served locally
        other = WindowSpec(kind="probe", params=(("value", 2),))
        assert cache.get(other) is None  # miss: backend not consulted
        assert inner.calls == calls
