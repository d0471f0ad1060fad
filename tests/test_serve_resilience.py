"""The resilience surface of ``repro serve``.

Production-hardening contract (``docs/serve.md``, "Operating the
service"): per-request deadlines abandon the *wait*, never the shared
coalesced computation — the result still lands in the tiered cache;
admission control sheds overload as HTTP 503 with ``Retry-After`` and
per-tenant fairness counters; graceful drain finishes in-flight work,
refuses new requests, and lets connections that were already open
finish with a 503 before ``repro serve`` exits; a hung server thread is
a raised :class:`ShutdownLeak`, not a silent leak; and no test leaves a
task pending when its event loop closes.
"""

import asyncio
import gc
import json
import logging
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import EngineConfig, ExperimentEngine, ResultCache
from repro.serve import (
    DeadlineExceeded,
    RequestError,
    ServerThread,
    Shed,
    ShutdownLeak,
    SimulationService,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCALE = 150  # characters: ~seconds per uncached simulation


@pytest.fixture(autouse=True)
def no_task_left_pending():
    """Fail a test whose event loop closed with a task still pending.

    asyncio logs "Task was destroyed but it is pending!" only when such
    a task is collected, which can be long after its loop closed: a
    worker thread still running the simulation keeps it alive.  So the
    check waits for the loops' executor threads, collects, and then
    looks at what asyncio logged during the test."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    asyncio_logger = logging.getLogger("asyncio")
    asyncio_logger.addHandler(handler)
    try:
        yield
        for thread in threading.enumerate():
            if thread.name.startswith("asyncio_"):
                thread.join(timeout=120)
        gc.collect()
    finally:
        asyncio_logger.removeHandler(handler)
    destroyed = [record.getMessage() for record in records
                 if "Task was destroyed but it is pending"
                 in record.getMessage()]
    assert not destroyed, destroyed


def _engine(tmp_path, name="cache"):
    return ExperimentEngine(
        config=EngineConfig(jobs=1),
        cache=ResultCache(tmp_path / name))


def _service(tmp_path, **kwargs):
    return SimulationService(engine=_engine(tmp_path), **kwargs)


def _slow(service):
    """Replace the service's simulation with one gated on an event, so
    tests control exactly when the computation finishes."""
    release = threading.Event()
    started = threading.Event()
    real = service._run_sync

    def gated(command, params):
        started.set()
        if not release.wait(timeout=30):
            raise RuntimeError("test never released the simulation")
        return real(command, params)

    service._run_sync = gated
    return started, release


def _run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def _get(server, path, timeout=120):
    return urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}{path}", timeout=timeout)


def _post(server, path, document=None, headers=None, timeout=120):
    body = b"" if document is None else json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}", data=body,
        headers=dict({"Content-Type": "application/json"}, **(headers or {})),
        method="POST")
    return urllib.request.urlopen(request, timeout=timeout)


# ----------------------------------------------------------------------
# Deadlines.


class TestDeadlines:
    def test_resolve_timeout_validates_and_caps(self, tmp_path):
        service = _service(tmp_path, default_timeout=5.0, max_timeout=10.0)
        assert service.resolve_timeout(None) == 5.0
        assert service.resolve_timeout("3") == 3.0
        assert service.resolve_timeout(3) == 3.0
        assert service.resolve_timeout(99) == 10.0  # capped
        for bad in ("soon", "", -1, 0, "0"):
            with pytest.raises(RequestError):
                service.resolve_timeout(bad)

    def test_no_default_means_no_deadline(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_TIMEOUT", raising=False)
        service = _service(tmp_path)
        assert service.resolve_timeout(None) is None

    def test_timeout_env_sets_the_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT", "2.5")
        assert _service(tmp_path).resolve_timeout(None) == 2.5

    #: Variable -> (service attribute, [(raw, value) for well-formed
    #: values], a malformed value).
    SERVE_ENV = {
        "REPRO_SERVE_QUEUE": ("queue_limit", [("3", 3), ("0", 1)], "many"),
        "REPRO_SERVE_TENANT_QUOTA": ("tenant_quota", [("2", 2), ("-4", 1)],
                                     "1.5"),
        "REPRO_SERVE_TIMEOUT": ("default_timeout",
                                [("2.5", 2.5), ("0", None)], "soon"),
        "REPRO_SERVE_MAX_TIMEOUT": ("max_timeout",
                                    [("60", 60.0), ("-1", None)], "x"),
        "REPRO_SERVE_DRAIN_TIMEOUT": ("drain_timeout",
                                      [(" 7 ", 7.0), ("", 30.0)], "7s"),
    }

    @pytest.mark.parametrize("name", sorted(SERVE_ENV))
    def test_serve_env_is_strict(self, name, tmp_path, monkeypatch):
        attr, good, bad = self.SERVE_ENV[name]
        for raw, value in good:
            monkeypatch.setenv(name, raw)
            assert getattr(_service(tmp_path), attr) == value
        monkeypatch.setenv(name, bad)
        with pytest.raises(ValueError, match=name):
            _service(tmp_path)

    def test_malformed_serve_env_is_a_usage_error(self, capsys,
                                                  monkeypatch, tmp_path):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SERVE_QUEUE", "lots")
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", "0", "--cache-dir",
                  str(tmp_path / "cache")])
        assert exit_info.value.code == 2
        assert "REPRO_SERVE_QUEUE='lots'" in capsys.readouterr().err

    def test_deadline_abandons_wait_not_computation(self, tmp_path):
        """The regression the tentpole names: a timed-out waiter must
        NOT cancel the shared in-flight future, and the result must
        still land in the engine cache."""
        service = _service(tmp_path)
        started, release = _slow(service)

        async def scenario():
            with pytest.raises(DeadlineExceeded):
                await service.submit("figure13", {"scale": SCALE},
                                     timeout=0.1)
            # The computation survived its abandoned waiter.
            assert len(service._inflight) == 1
            shared = next(iter(service._inflight.values()))
            assert not shared.cancelled()
            release.set()
            result = await asyncio.wait_for(asyncio.shield(shared), 180)
            assert result.command == "figure13"

        _run(scenario())
        assert started.is_set()
        assert service.counters.deadline_exceeded == 1
        assert service.counters.simulations == 1
        assert service._inflight == {}
        # ... and its windows landed in the cache: a warm engine over
        # the same root replays the figure without a single miss.
        warm = ExperimentEngine(
            config=EngineConfig(jobs=1),
            cache=ResultCache(tmp_path / "cache"))
        from repro import api
        api.run_figure13(scale=SCALE, engine=warm)
        assert warm.cache.misses == 0
        assert warm.cache.hits > 0

    def test_deadline_leaves_coalesced_waiters_unharmed(self, tmp_path):
        service = _service(tmp_path)
        _started, release = _slow(service)

        async def scenario():
            patient = asyncio.ensure_future(
                service.submit("figure13", {"scale": SCALE}))
            await asyncio.sleep(0.05)
            with pytest.raises(DeadlineExceeded):
                await service.submit("figure13", {"scale": SCALE},
                                     timeout=0.1)
            release.set()
            return await asyncio.wait_for(patient, 180)

        result = _run(scenario())
        assert result.data is not None
        assert service.counters.simulations == 1
        assert service.counters.coalesced == 1
        assert service.counters.deadline_exceeded == 1

    def test_http_deadline_is_504(self, tmp_path):
        service = _service(tmp_path)
        _started, release = _slow(service)
        try:
            with ServerThread(service) as server:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(server,
                         f"/v1/figure/figure13?scale={SCALE}&timeout=0.1")
                assert excinfo.value.code == 504
                assert "deadline" in json.loads(excinfo.value.read())["error"]
                release.set()
                # Settle the abandoned computation before the loop
                # closes, or its task is destroyed while pending.
                assert server.drain()["inflight_completed"] == 1
        finally:
            release.set()

    def test_http_bad_timeout_is_400(self, tmp_path):
        with ServerThread(_service(tmp_path)) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, f"/v1/figure/figure13?scale={SCALE}&timeout=nope")
            assert excinfo.value.code == 400
        assert server.service.counters.rejected == 1
        assert server.service.counters.simulations == 0

    def test_timeout_never_reaches_the_coalescing_key(self, tmp_path):
        """``timeout`` is transport-level: two requests differing only
        in deadline must still coalesce (same key, one simulation)."""
        with ServerThread(_service(tmp_path)) as server:
            a = _get(server,
                     f"/v1/figure/figure13?scale={SCALE}&timeout=30").read()
            b = _post(server, "/v1/figure",
                      {"command": "figure13", "params": {"scale": SCALE},
                       "timeout": 60}).read()
        assert a == b
        assert server.service.counters.simulations == 2  # sequential
        for params in (json.loads(a)["params"], json.loads(b)["params"]):
            assert "timeout" not in params


# ----------------------------------------------------------------------
# Coalesced-waiter cancellation (satellite regression test).


class TestWaiterCancellation:
    def test_cancelling_one_of_n_waiters_cancels_nothing_shared(
            self, tmp_path):
        service = _service(tmp_path)
        _started, release = _slow(service)

        async def scenario():
            waiters = [asyncio.ensure_future(
                service.submit("figure13", {"scale": SCALE}))
                for _ in range(3)]
            await asyncio.sleep(0.05)  # all three attach to one future
            waiters[0].cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiters[0]
            # The shared computation is still in flight, un-cancelled.
            assert len(service._inflight) == 1
            assert not next(iter(service._inflight.values())).cancelled()
            release.set()
            return await asyncio.gather(*waiters[1:])

        survivors = _run(scenario())
        assert len(survivors) == 2
        documents = {json.dumps(r.document(), sort_keys=True)
                     for r in survivors}
        assert len(documents) == 1
        assert service.counters.simulations == 1
        assert service._inflight == {}  # the future did not leak

    def test_every_waiter_abandoning_still_completes_the_simulation(
            self, tmp_path):
        """Even with zero remaining waiters the computation finishes
        and the in-flight slot is reclaimed (no 'exception never
        retrieved' noise, no leak)."""
        service = _service(tmp_path)
        started, release = _slow(service)

        async def scenario():
            with pytest.raises(DeadlineExceeded):
                await service.submit("figure13", {"scale": SCALE},
                                     timeout=0.05)
            release.set()
            deadline = time.monotonic() + 180  # loaded CI boxes are slow
            while service._inflight and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            assert service._inflight == {}

        _run(scenario())
        assert started.is_set()
        assert service.counters.simulations == 1


# ----------------------------------------------------------------------
# Admission control / load shedding.


class TestShedding:
    def test_queue_limit_sheds_the_overflow(self, tmp_path):
        service = _service(tmp_path, queue_limit=2)
        _started, release = _slow(service)

        async def scenario():
            admitted = [asyncio.ensure_future(
                service.submit("figure13", {"scale": SCALE}))
                for _ in range(2)]
            await asyncio.sleep(0.05)
            with pytest.raises(Shed) as excinfo:
                await service.submit("figure13", {"scale": SCALE})
            assert "queue full" in str(excinfo.value)
            assert excinfo.value.retry_after > 0
            release.set()
            await asyncio.gather(*admitted)

        _run(scenario())
        assert service.counters.shed == 1
        assert service.counters.requests == 2  # shed never counts as served

    def test_tenant_quota_is_per_tenant(self, tmp_path):
        service = _service(tmp_path, queue_limit=16, tenant_quota=1)
        _started, release = _slow(service)

        async def scenario():
            first = asyncio.ensure_future(
                service.submit("figure13", {"scale": SCALE}, tenant="alice"))
            await asyncio.sleep(0.05)
            with pytest.raises(Shed, match="over quota"):
                await service.submit("figure14", {"scale": SCALE},
                                     tenant="alice")
            # A different tenant is unaffected by alice's quota.
            other = asyncio.ensure_future(
                service.submit("figure13", {"scale": SCALE}, tenant="bob"))
            await asyncio.sleep(0.05)
            release.set()
            await asyncio.gather(first, other)

        _run(scenario())
        tenants = service.stats()["tenants"]
        assert tenants["alice"] == {"requests": 1, "shed": 1, "active": 0}
        assert tenants["bob"] == {"requests": 1, "shed": 0, "active": 0}

    def test_http_shed_is_503_with_retry_after(self, tmp_path):
        service = _service(tmp_path, queue_limit=0)  # refuse everything
        with ServerThread(service) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, f"/v1/figure/figure13?scale={SCALE}")
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "1"
            body = json.loads(excinfo.value.read())
            assert "queue full" in body["error"]
            assert body["retry_after"] == 1.0
            stats = json.loads(_get(server, "/statsz").read())
        assert stats["serve"]["shed"] == 1
        assert stats["tenants"]["anonymous"]["shed"] == 1

    def test_tenant_header_reaches_the_fairness_counters(self, tmp_path):
        with ServerThread(_service(tmp_path)) as server:
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}"
                f"/v1/figure/figure13?scale={SCALE}",
                headers={"X-Repro-Tenant": "team-a"})
            urllib.request.urlopen(request, timeout=120).read()
            stats = json.loads(_get(server, "/statsz").read())
        assert stats["tenants"]["team-a"]["requests"] == 1
        assert stats["tenants"]["team-a"]["active"] == 0

    def test_statsz_reports_limits_and_draining_flag(self, tmp_path):
        service = _service(tmp_path, queue_limit=3, tenant_quota=2,
                           default_timeout=7.0, max_timeout=70.0)
        with ServerThread(service) as server:
            stats = json.loads(_get(server, "/statsz").read())
        assert stats["limits"] == {
            "queue": 3, "tenant_quota": 2, "default_timeout": 7.0,
            "max_timeout": 70.0, "drain_timeout": service.drain_timeout}
        assert stats["serve"]["draining"] is False
        assert set(stats) == {"serve", "limits", "tenants", "stores",
                              "engine"}
        assert set(stats["engine"]) == {
            "plans", "plan_modes", "windows", "cache_hits", "cache_misses",
            "failures", "retries", "group_fallbacks", "window_wall_s",
            "elapsed_s",
            "simulated_cycles", "simulated_instructions", "workers",
            "trace_hits", "trace_misses", "functional_steps",
            "fastpath_windows", "goldenpath_windows", "timing_kernels",
            "timing_routes", "validation_passes", "validation_divergences",
            "resumed", "integrity", "stores"}
        assert stats["engine"]["group_fallbacks"] == 0


# ----------------------------------------------------------------------
# Graceful drain.


class TestDrain:
    def test_drain_finishes_inflight_then_refuses_new_work(self, tmp_path):
        service = _service(tmp_path)
        _started, release = _slow(service)

        async def scenario():
            inflight = asyncio.ensure_future(
                service.submit("figure13", {"scale": SCALE}))
            await asyncio.sleep(0.05)
            drain = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.05)
            assert service.draining
            with pytest.raises(Shed) as excinfo:
                await service.submit("figure14", {"scale": SCALE})
            assert "draining" in str(excinfo.value)
            assert excinfo.value.retry_after == 5.0
            release.set()
            report = await drain
            result = await inflight
            return report, result

        report, result = _run(scenario())
        assert result.data is not None  # in-flight request completed
        assert report["drained"] is True
        assert report["inflight_completed"] == 1
        assert report["inflight_cancelled"] == 0
        assert set(report) == {"drained", "inflight_completed",
                               "inflight_cancelled"}

    def test_drain_is_idempotent(self, tmp_path):
        service = _service(tmp_path)

        async def scenario():
            first = await service.drain()
            second = await service.drain()
            assert second is first

        _run(scenario())

    def test_drain_cancels_stragglers_after_its_timeout(self, tmp_path):
        service = _service(tmp_path, drain_timeout=0.1)
        _started, release = _slow(service)

        async def scenario():
            hung = asyncio.ensure_future(
                service.submit("figure13", {"scale": SCALE}))
            await asyncio.sleep(0.05)
            report = await service.drain()
            release.set()  # free the worker thread
            with pytest.raises(Shed, match="drained") as excinfo:
                await hung
            assert excinfo.value.retry_after == 5.0
            return report

        report = _run(scenario())
        assert report["inflight_completed"] == 0
        assert report["inflight_cancelled"] == 1

    def test_http_drain_route(self, tmp_path):
        with ServerThread(_service(tmp_path)) as server:
            _get(server, f"/v1/figure/figure13?scale={SCALE}").read()
            with _post(server, "/v1/admin/drain") as response:
                assert response.status == 200
                report = json.loads(response.read())
            assert report["drained"] is True
            # Post-drain, requests shed with 503 + Retry-After.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, f"/v1/figure/figure13?scale={SCALE}")
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "5"
            stats = json.loads(_get(server, "/statsz").read())
            assert stats["serve"]["draining"] is True

    def test_http_request_cancelled_by_drain_is_503(self, tmp_path):
        """A request whose computation the drain cancels is answered
        503 + ``Retry-After``, not dropped."""
        service = _service(tmp_path, drain_timeout=0.1)
        started, release = _slow(service)
        replies = []

        def request():
            try:
                _get(server, f"/v1/figure/figure13?scale={SCALE}")
            except urllib.error.HTTPError as exc:
                replies.append((exc.code, exc.headers["Retry-After"]))

        try:
            with ServerThread(service) as server:
                client = threading.Thread(target=request)
                client.start()
                assert started.wait(timeout=30)
                report = server.drain()
                client.join(timeout=60)
        finally:
            release.set()
        assert report["inflight_cancelled"] == 1
        assert replies == [(503, "5")]

    def test_http_drain_is_get_405(self, tmp_path):
        with ServerThread(_service(tmp_path)) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/v1/admin/drain")
            assert excinfo.value.code == 405

    def test_warm_restart_after_drain_runs_zero_windows(self, tmp_path):
        """Everything the first server computed is in the stores by
        the time drain returns; a restarted server over the same cache
        root answers the same request without recomputing a single
        window."""
        with ServerThread(_service(tmp_path)) as server:
            before = _get(server,
                          f"/v1/figure/figure13?scale={SCALE}").read()
            server.drain()
        warm_engine = _engine(tmp_path)
        with ServerThread(SimulationService(engine=warm_engine)) as server:
            after = _get(server, f"/v1/figure/figure13?scale={SCALE}").read()
        assert after == before
        assert warm_engine.cache.misses == 0
        assert warm_engine.cache.hits > 0


# ----------------------------------------------------------------------
# Shutdown-leak detection (satellite: no more silent returns).


class TestShutdownLeak:
    def test_hung_loop_raises_and_logs(self, tmp_path, caplog):
        server = ServerThread(_service(tmp_path)).start()
        # Wedge the event loop so stop()'s loop.stop callback starves.
        server._loop.call_soon_threadsafe(time.sleep, 1.5)
        time.sleep(0.1)  # let the wedge start running
        thread = server._thread
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            with pytest.raises(ShutdownLeak, match="failed to stop"):
                server.stop(join_timeout=0.2)
        assert "leaked" in caplog.text
        # Once the wedge clears, the queued loop.stop runs and the
        # thread exits — the test must not leak it across the suite.
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_clean_stop_neither_raises_nor_logs(self, tmp_path, caplog):
        server = ServerThread(_service(tmp_path)).start()
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            server.stop()
        assert caplog.text == ""
        assert server._thread is None


# ----------------------------------------------------------------------
# The CLI: SIGTERM or a drain request means drain-and-exit-0.


def _serve_process(tmp_path, **env_overrides):
    """A real ``repro serve --port 0`` and the port its banner names."""
    env = dict(os.environ,
               PYTHONPATH=str(REPO_ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"), **env_overrides)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stderr=subprocess.PIPE, stdout=subprocess.DEVNULL,
        env=env, cwd=str(tmp_path), text=True)
    banner = process.stderr.readline()
    match = re.search(r"http://[^:]+:(\d+)", banner)
    if match is None:
        process.kill()
        process.wait(timeout=30)
        pytest.fail(f"no listening banner: {banner!r}")
    return process, int(match.group(1))


def _post_drain(port):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/admin/drain", data=b"", method="POST")
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 200
        return json.loads(response.read())


def _receive_all(connection):
    reply = b""
    while True:
        chunk = connection.recv(65536)
        if not chunk:
            return reply
        reply += chunk


class TestCliSigterm:
    def test_sigterm_drains_cleanly_and_exits_zero(self, tmp_path):
        process, _port = _serve_process(tmp_path)
        try:
            process.send_signal(signal.SIGTERM)
            remainder = process.stderr.read()
            code = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        assert code == 0
        assert "[serve: drained cleanly]" in remainder


class TestCliDrainRelease:
    """``repro serve`` returns from a drain only after the connections
    that were open at the drain have finished."""

    def test_connection_held_across_drain_gets_503(self, tmp_path):
        process, port = _serve_process(tmp_path)
        try:
            held = socket.create_connection(("127.0.0.1", port), timeout=60)
            time.sleep(0.2)  # the server accepts it before the drain
            assert _post_drain(port)["drained"] is True
            time.sleep(0.5)  # the request arrives well after the drain
            held.sendall(f"GET /v1/figure/figure13?scale={SCALE} "
                         f"HTTP/1.1\r\nHost: test\r\n\r\n".encode())
            reply = _receive_all(held)
            held.close()
            remainder = process.stderr.read()
            code = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        head = reply.partition(b"\r\n\r\n")[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 503"), reply
        assert "Retry-After: 5" in head.split("\r\n")
        assert code == 0
        assert "CancelledError" not in remainder
        assert "Traceback" not in remainder
        assert "[serve: drained cleanly]" in remainder

    def test_silent_connection_is_closed_at_the_drain_timeout(self,
                                                             tmp_path):
        process, port = _serve_process(tmp_path,
                                       REPRO_SERVE_DRAIN_TIMEOUT="0.5")
        try:
            held = socket.create_connection(("127.0.0.1", port), timeout=60)
            time.sleep(0.2)
            _post_drain(port)
            code = process.wait(timeout=60)  # without a request sent
            remainder = process.stderr.read()
            held.close()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        assert code == 0
        assert "CancelledError" not in remainder
        assert "Traceback" not in remainder
        assert "[serve: drained cleanly]" in remainder

