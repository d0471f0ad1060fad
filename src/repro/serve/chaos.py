"""Deterministic chaos harness for ``repro serve`` (``repro chaos-serve``).

The service's resilience claims are only claims until something breaks
on purpose.  This module breaks the shared backend on purpose —
deterministically — and proves the serving stack absorbs it:

* :class:`FaultyBackend` wraps any :class:`~repro.store.backend.Backend`
  and injects faults keyed by ``sha256(seed, op, name, call#)`` — the
  same discipline as :mod:`repro.engine.faults`, so a chaos run is a
  pure function of its arguments.  Modes: ``slow`` (added latency,
  still succeeds), ``error`` (raises), ``hang`` (sleeps past the
  breaker's call budget, then raises) and ``torn`` (truncated bytes —
  the integrity layer's problem to catch);
* :func:`run_chaos_serve` serves one figure twice over real HTTP — a
  clean pass (no backend) and a chaos pass (breaker-wrapped faulty
  backend) — and byte-compares every response.  The chaos pass also
  probes the per-request deadline, heals the backend and watches the
  breaker recover, drains gracefully (new requests shed with 503),
  and restarts over the warm cache proving zero re-simulation.

Every fault lands *below* the integrity layer, so the responses must
be byte-identical: torn entries quarantine and recompute, errors and
hangs degrade to local tiers, and the ledger of what was injected
rides along in the report.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..engine import EngineConfig, ExperimentEngine
from ..engine.cache import ResultCache
from ..engine.tracestore import TraceStore
from ..store import Backend, CircuitBreakerBackend, FilesystemBackend
from .http import ServerThread
from .service import COMMANDS, SimulationService

#: Fault modes :class:`FaultyBackend` can inject.
FAULT_MODES = ("slow", "error", "hang", "torn")


class FaultyBackend(Backend):
    """Deterministic fault injection around a real backend.

    Whether call *n* of ``op`` on entry ``name`` faults — and which
    mode fires — is a pure function of ``(seed, op, name, n)``: the
    same run replays the same faults.  ``rate`` may be changed live
    (:meth:`heal`) so a chaos run can prove recovery.
    """

    scheme = "faulty"

    def __init__(self, inner: Backend, *, seed: int = 0, rate: float = 0.2,
                 modes: Sequence[str] = FAULT_MODES,
                 slow_seconds: float = 0.05,
                 hang_seconds: float = 2.0,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        unknown = set(modes) - set(FAULT_MODES)
        if unknown:
            raise ValueError(
                f"unknown fault modes {sorted(unknown)}; "
                f"known: {FAULT_MODES}")
        self.inner = inner
        self.seed = int(seed)
        self.rate = float(rate)
        self.modes: Tuple[str, ...] = tuple(modes)
        self.slow_seconds = slow_seconds
        self.hang_seconds = hang_seconds
        self._sleep = sleep
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        #: Ledger of injected faults, per mode.
        self.injected: Dict[str, int] = {mode: 0 for mode in FAULT_MODES}

    # Byte/hit accounting belongs to the backend doing the IO.
    @property
    def counters(self):
        return self.inner.counters

    def heal(self) -> None:
        """Stop injecting (rate 0) — the recovery half of a chaos run."""
        self.rate = 0.0

    def _draw(self, op: str, name: str) -> Optional[str]:
        """The fault mode for this call, or ``None`` (deterministic)."""
        if self.rate <= 0.0 or not self.modes:
            return None
        token = f"{op}:{name}"
        with self._lock:
            count = self._calls.get(token, 0) + 1
            self._calls[token] = count
        digest = hashlib.sha256(
            f"{self.seed}:{op}:{name}:{count}".encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        if draw >= self.rate:
            return None
        mode = self.modes[digest[8] % len(self.modes)]
        with self._lock:
            self.injected[mode] += 1
        return mode

    def _tear(self, path: pathlib.Path) -> None:
        """Truncate ``path`` to half its bytes (a torn copy)."""
        with contextlib.suppress(OSError):
            size = path.stat().st_size
            with open(path, "r+b") as handle:
                handle.truncate(max(1, size // 2))

    def fetch(self, name: str, dest: pathlib.Path) -> bool:
        mode = self._draw("fetch", name)
        if mode == "error":
            raise OSError(f"injected backend error (fetch {name})")
        if mode == "hang":
            self._sleep(self.hang_seconds)
            raise OSError(f"injected backend hang (fetch {name})")
        if mode == "slow":
            self._sleep(self.slow_seconds)
        landed = self.inner.fetch(name, pathlib.Path(dest))
        if landed and mode == "torn":
            self._tear(pathlib.Path(dest))
        return landed

    def push(self, name: str, src: pathlib.Path) -> bool:
        mode = self._draw("push", name)
        if mode == "error":
            raise OSError(f"injected backend error (push {name})")
        if mode == "hang":
            self._sleep(self.hang_seconds)
            raise OSError(f"injected backend hang (push {name})")
        if mode == "slow":
            self._sleep(self.slow_seconds)
        if mode == "torn":
            # Publish truncated bytes: the poisoned entry must be
            # caught by the *fetching* replica's integrity layer.
            with tempfile.NamedTemporaryFile(delete=False) as handle:
                data = pathlib.Path(src).read_bytes()
                handle.write(data[:max(1, len(data) // 2)])
                torn = handle.name
            try:
                return self.inner.push(name, pathlib.Path(torn))
            finally:
                with contextlib.suppress(OSError):
                    os.unlink(torn)
        return self.inner.push(name, pathlib.Path(src))

    def describe(self) -> str:
        return f"faulty({self.inner.describe()}, rate={self.rate})"

    def stats(self) -> Dict[str, Any]:
        return dict(self.counters.as_dict(), backend=self.describe(),
                    faults=dict(self.injected))


# ----------------------------------------------------------------------
# The end-to-end chaos run.

@dataclass
class ChaosReport:
    """What one chaos run proved (or failed to prove)."""

    command: str
    requests: int
    seed: int
    rate: float
    modes: List[str]
    #: Request indices whose chaos-pass bytes differed from clean.
    divergences: List[int] = field(default_factory=list)
    #: sha256 digests of the clean-pass responses, in request order.
    digests: List[str] = field(default_factory=list)
    #: Faults actually injected, per mode.
    faults: Dict[str, int] = field(default_factory=dict)
    #: Final breaker telemetry (after recovery).
    breaker: Dict[str, Any] = field(default_factory=dict)
    breaker_opened: bool = False
    breaker_recovered: bool = False
    #: The deadline probe: status/elapsed of a tight-deadline request.
    deadline: Dict[str, Any] = field(default_factory=dict)
    #: Drain semantics: the drain report, plus the post-drain 503 probe.
    drain: Dict[str, Any] = field(default_factory=dict)
    #: Requests shed (from the drained service's counters).
    shed: int = 0
    #: Warm restart over the chaos cache: hits/misses/byte-identity.
    warm: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return (bool(self.divergences)
                or not self.breaker_recovered
                or not self.deadline.get("ok", False)
                or not self.drain.get("ok", False)
                or not self.warm.get("ok", False))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "command": self.command,
            "requests": self.requests,
            "seed": self.seed,
            "rate": self.rate,
            "modes": list(self.modes),
            "divergences": list(self.divergences),
            "digests": list(self.digests),
            "faults": dict(self.faults),
            "breaker": dict(self.breaker),
            "breaker_opened": self.breaker_opened,
            "breaker_recovered": self.breaker_recovered,
            "deadline": dict(self.deadline),
            "drain": dict(self.drain),
            "shed": self.shed,
            "warm": dict(self.warm),
            "failed": self.failed,
        }


def _request_docs(command: str, params: Optional[Dict[str, Any]],
                  requests: int) -> List[Dict[str, Any]]:
    """The request sweep: distinct seeds when the command takes one
    (every request computes fresh windows → real backend traffic)."""
    allowed = COMMANDS.get(command)
    if allowed is None:
        raise ValueError(
            f"unknown command {command!r}; known: {sorted(COMMANDS)}")
    base = dict(params or {})
    if "seed" in allowed:
        start = int(base.get("seed", 0))
        return [dict(base, seed=start + index) for index in range(requests)]
    return [dict(base) for _ in range(requests)]


def _post(port: int, document: Dict[str, Any],
          timeout: float = 600.0) -> Tuple[int, bytes, Dict[str, str]]:
    """(status, body, headers) of one POST /v1/figure."""
    data = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/figure", data=data,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (response.status, response.read(),
                    {name.lower(): value
                     for name, value in response.headers.items()})
    except urllib.error.HTTPError as error:
        return (error.code, error.read(),
                {name.lower(): value for name, value in error.headers.items()})


def _engine(root: pathlib.Path, backend: Optional[Backend]) -> ExperimentEngine:
    """A serial engine over stores under ``root``; the shared tier is
    the harness's own ``backend``, never the configured one."""
    config = EngineConfig.from_env(jobs=1)
    cache = ResultCache(root / "cache", policy=config.integrity,
                        backend=backend)
    traces = TraceStore(root / "cache" / "traces", policy=config.integrity,
                        handles=config.trace_handles)
    return ExperimentEngine(config=config, cache=cache, trace_store=traces)


def run_chaos_serve(*, command: str = "figure13",
                    params: Optional[Dict[str, Any]] = None,
                    requests: int = 6,
                    seed: int = 0,
                    rate: float = 0.2,
                    modes: Sequence[str] = FAULT_MODES,
                    hang_seconds: float = 2.0,
                    deadline_timeout: float = 0.25,
                    deadline_slack: float = 1.0,
                    workdir: Optional[pathlib.Path] = None) -> ChaosReport:
    """Prove ``repro serve`` absorbs a hostile backend, end to end.

    1. **clean pass** — serve the request sweep with no backend;
       record every response body.
    2. **chaos pass** — a fresh cache, its backend a
       :class:`~repro.store.backend.CircuitBreakerBackend` (aggressive:
       one exhausted failure opens it) around a
       :class:`FaultyBackend`.  Replay the sweep over HTTP and
       byte-compare against the clean pass; probe a tight per-request
       deadline (must answer within the deadline plus
       ``deadline_slack``); heal the backend and watch the breaker
       close again; drain via ``POST /v1/admin/drain`` and prove the
       next request sheds with 503 + ``Retry-After``.
    3. **warm restart** — a new server over the chaos pass's cache:
       the sweep must be byte-identical with zero window re-simulation
       (every window a cache hit).

    Deterministic: same arguments, same faults, same report.
    """
    if workdir is None:
        workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir = pathlib.Path(workdir)
    report = ChaosReport(command=command, requests=requests, seed=seed,
                         rate=rate, modes=list(modes))
    docs = [{"command": command, "params": doc_params}
            for doc_params in _request_docs(command, params, requests)]

    # -- 1. clean pass ---------------------------------------------------
    clean_bodies: List[bytes] = []
    with ServerThread(SimulationService(
            engine=_engine(workdir / "clean", backend=None))) as server:
        for document in docs:
            status, body, _headers = _post(server.port, document)
            if status != 200:
                raise RuntimeError(
                    f"clean pass failed: HTTP {status} for {document}: "
                    f"{body[:200]!r}")
            clean_bodies.append(body)
    report.digests = [hashlib.sha256(body).hexdigest() for body in clean_bodies]

    # -- 2. chaos pass -----------------------------------------------------
    shared = workdir / "shared"
    shared.mkdir(parents=True, exist_ok=True)
    faulty = FaultyBackend(FilesystemBackend(shared), seed=seed, rate=rate,
                           modes=modes, hang_seconds=hang_seconds)
    breaker = CircuitBreakerBackend(faulty, failures=1, reset_after=0.2,
                                    call_timeout=0.75, retries=0,
                                    backoff=0.01)
    chaos_engine = _engine(workdir / "chaos", backend=breaker)
    service = SimulationService(engine=chaos_engine, workers=2)
    with ServerThread(service) as server:
        for index, document in enumerate(docs):
            status, body, _headers = _post(server.port, document)
            if status != 200 or body != clean_bodies[index]:
                report.divergences.append(index)

        # Deadline probe: a fresh (uncached) request under a tight
        # deadline must answer within deadline + slack — either the
        # result (it was fast enough) or a 504 (the deadline fired and
        # the wait, not the computation, was abandoned).
        probe = {"command": command,
                 "params": dict(docs[-1]["params"]),
                 "timeout": deadline_timeout}
        if "seed" in COMMANDS[command]:
            probe["params"]["seed"] = int(
                probe["params"].get("seed", 0)) + 10_000
        started = time.monotonic()
        status, _body, _headers = _post(server.port, probe)
        elapsed = time.monotonic() - started
        report.deadline = {
            "timeout": deadline_timeout,
            "status": status,
            "elapsed": round(elapsed, 3),
            "ok": (status == 200 or
                   (status == 504
                    and elapsed <= deadline_timeout + deadline_slack)),
        }

        # Recovery: heal the backend; the next backend call after the
        # cooldown is the half-open probe that closes the breaker.
        report.breaker_opened = breaker.opens > 0
        faulty.heal()
        if breaker.state != "closed":
            time.sleep(breaker.reset_after + 0.05)
            for attempt in range(5):
                recovery = {"command": command,
                            "params": dict(docs[-1]["params"])}
                if "seed" in COMMANDS[command]:
                    recovery["params"]["seed"] = int(
                        recovery["params"].get("seed", 0)) + 20_000 + attempt
                _post(server.port, recovery)
                if breaker.state == "closed":
                    break
                time.sleep(breaker.reset_after + 0.05)
        report.breaker_recovered = breaker.state == "closed"

        # Graceful drain over the wire, then prove admission stops.
        drain_request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/admin/drain",
            data=b"", method="POST")
        with urllib.request.urlopen(drain_request, timeout=120) as response:
            drain_report = json.loads(response.read().decode("utf-8"))
        status, _body, headers = _post(server.port, docs[0])
        report.drain = {
            "report": drain_report,
            "post_drain_status": status,
            "retry_after": headers.get("retry-after"),
            "ok": (bool(drain_report.get("drained"))
                   and status == 503
                   and headers.get("retry-after") is not None),
        }
        report.shed = service.counters.shed
        report.breaker = breaker.breaker_stats()
        report.faults = dict(faulty.injected)

    # -- 3. warm restart ---------------------------------------------------
    warm_engine = _engine(workdir / "chaos", backend=None)
    warm_identical = True
    with ServerThread(SimulationService(engine=warm_engine)) as server:
        for index, document in enumerate(docs):
            status, body, _headers = _post(server.port, document)
            if status != 200 or body != clean_bodies[index]:
                warm_identical = False
    report.warm = {
        "hits": warm_engine.cache.hits,
        "misses": warm_engine.cache.misses,
        "byte_identical": warm_identical,
        "ok": warm_identical and warm_engine.cache.misses == 0,
    }
    return report


def format_chaos(report: ChaosReport) -> str:
    """The human-readable verdict."""
    injected = sum(report.faults.values())
    fault_list = ", ".join(f"{mode}={count}"
                           for mode, count in sorted(report.faults.items()))
    lines = [
        f"chaos serve: {report.command} x{report.requests} "
        f"(seed {report.seed}, rate {report.rate}, "
        f"modes {'/'.join(report.modes)})",
        f"faults injected: {injected} ({fault_list})",
        f"responses: "
        + ("byte-identical to clean run" if not report.divergences else
           f"DIVERGED on requests {report.divergences}"),
        f"breaker: opened={report.breaker_opened} "
        f"recovered={report.breaker_recovered} "
        f"(opens={report.breaker.get('opens')}, "
        f"closes={report.breaker.get('closes')}, "
        f"timeouts={report.breaker.get('timeouts')}, "
        f"fast_failed={report.breaker.get('fast_failed')})",
        f"deadline probe: HTTP {report.deadline.get('status')} in "
        f"{report.deadline.get('elapsed')}s "
        f"(budget {report.deadline.get('timeout')}s) "
        + ("ok" if report.deadline.get("ok") else "FAIL"),
        f"drain: {'ok' if report.drain.get('ok') else 'FAIL'} "
        f"(post-drain HTTP {report.drain.get('post_drain_status')}, "
        f"Retry-After {report.drain.get('retry_after')}), "
        f"shed={report.shed}",
        f"warm restart: hits={report.warm.get('hits')} "
        f"misses={report.warm.get('misses')} "
        + ("ok" if report.warm.get("ok") else "FAIL"),
        "verdict: " + ("FAIL" if report.failed else "PASS"),
    ]
    return "\n".join(lines)
