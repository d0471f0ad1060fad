"""The simulation service: validation, coalescing, and the work queue.

This module is the protocol-independent half of ``repro serve`` — it
knows nothing about HTTP.  :class:`SimulationService` maps validated
``(command, params)`` requests onto the :mod:`repro.api` façade:

* **whitelist** — :data:`COMMANDS` enumerates exactly the façade
  functions the service exposes and, per command, the parameters a
  tenant may set with their coercers.  Anything else is a
  :class:`RequestError`, never an arbitrary call;
* **canonical keys** — :func:`request_key` folds the command and the
  *resolved* parameters (defaults applied, values coerced) into one
  canonical JSON string, so ``{"scale": 2}`` and ``{"scale": 2.0}``
  coalesce and differently-ordered dicts hash the same;
* **coalescing** — concurrent identical requests share one in-flight
  computation: the first takes the slot, the rest await the same
  future and count as ``coalesced``.  Results are *not* cached here —
  the engine's tiered result store already memoises at window
  granularity, which is the durable, integrity-checked place for it;
* **the queue** — an ``asyncio`` semaphore bounds how many distinct
  computations run at once (``workers``); each runs in a thread so the
  event loop stays responsive while the engine fans windows out to its
  own process pool (per-request :class:`~repro.engine.spec.WindowSpec`
  sharding happens inside the experiments, exactly as it does for the
  CLI);
* **resilience** (``docs/serve.md``, "Operating the service") —
  per-request deadlines (:class:`DeadlineExceeded` → HTTP 504; a timed
  out waiter abandons only its *own* wait: the shared computation runs
  to completion and its windows still land in the result cache),
  admission control (a bounded concurrent-waiter queue and per-tenant
  quotas; overload is :class:`Shed` → HTTP 503 with ``Retry-After``),
  and graceful drain (:meth:`SimulationService.drain` stops admission
  and waits for in-flight work).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..engine import ExperimentEngine
from ..store.base import env_value, parse_float, parse_int

#: Default per-request deadline in seconds (``None`` = no deadline).
TIMEOUT_ENV = "REPRO_SERVE_TIMEOUT"
#: Hard cap a tenant's ``?timeout=`` cannot exceed.
MAX_TIMEOUT_ENV = "REPRO_SERVE_MAX_TIMEOUT"
#: Bound on concurrently-admitted requests (waiters, not computations).
QUEUE_ENV = "REPRO_SERVE_QUEUE"
#: Bound on one tenant's concurrently-admitted requests.
TENANT_QUOTA_ENV = "REPRO_SERVE_TENANT_QUOTA"
#: How long :meth:`SimulationService.drain` waits for in-flight work.
DRAIN_TIMEOUT_ENV = "REPRO_SERVE_DRAIN_TIMEOUT"

DEFAULT_MAX_TIMEOUT = 600.0
DEFAULT_QUEUE_LIMIT = 16
DEFAULT_TENANT_QUOTA = 8
DEFAULT_DRAIN_TIMEOUT = 30.0
#: Requests that name no tenant are accounted under this bucket.
DEFAULT_TENANT = "anonymous"


def _positive_or_none(name: str, raw: str) -> Optional[float]:
    """Seconds; zero or negative means none (no deadline, no cap, an
    unbounded drain wait)."""
    value = parse_float(name, raw)
    return value if value > 0 else None


def _at_least_one(name: str, raw: str) -> int:
    return max(1, parse_int(name, raw))


class RequestError(ValueError):
    """A request the service refuses: unknown command, unknown or
    uncoercible parameter.  Maps to HTTP 400."""


class DeadlineExceeded(TimeoutError):
    """This waiter's deadline fired before the computation finished.
    Maps to HTTP 504.  Only the wait is abandoned: the shared in-flight
    computation keeps running, its result lands in the tiered result
    cache, and every other coalesced waiter is unaffected."""


class Shed(RuntimeError):
    """Admission control refused the request (draining, queue full, or
    the tenant is over quota).  Maps to HTTP 503 with ``Retry-After``.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        #: Seconds the client should wait before retrying (the
        #: ``Retry-After`` header value, rounded up on the wire).
        self.retry_after = retry_after


def _as_float(value: Any) -> float:
    return float(value)


def _as_int(value: Any) -> int:
    # Reject silent truncation ("4000.5" is a typo, not an int).
    number = float(value)
    if number != int(number):
        raise ValueError(f"not an integer: {value!r}")
    return int(number)


def _as_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
    raise ValueError(f"not a boolean: {value!r}")


def _as_seed_list(value: Any) -> Tuple[int, ...]:
    """Seeds arrive as a JSON list or a comma-separated query string."""
    if isinstance(value, str):
        parts = [part for part in value.split(",") if part.strip()]
        return tuple(_as_int(part) for part in parts)
    if isinstance(value, (list, tuple)):
        return tuple(_as_int(item) for item in value)
    return (_as_int(value),)


def _as_choice(*options: str) -> Callable[[Any], str]:
    def coerce(value: Any) -> str:
        text = str(value).strip().lower()
        if text not in options:
            raise ValueError(f"must be one of {options}, got {value!r}")
        return text
    return coerce


def _as_plan(value: Any) -> str:
    """Sampling plans canonicalise before coalescing, so
    ``fraction:0.25`` and ``fraction:0.250`` share one computation."""
    from ..stats import SamplingPlan

    return SamplingPlan.parse(str(value)).canonical()


#: command -> {param -> coercer}.  The façade functions themselves
#: supply the defaults; the service only validates and coerces what a
#: tenant explicitly sets.
COMMANDS: Dict[str, Dict[str, Callable[[Any], Any]]] = {
    "figure9": {"scale": _as_float, "seeds": _as_seed_list,
                "sample": _as_plan, "seed": _as_int},
    "figure10": {"scale": _as_float, "seeds": _as_seed_list,
                 "sample": _as_plan, "seed": _as_int},
    "figure12": {"scale": _as_float, "interval": _as_int,
                 "sample": _as_plan, "seed": _as_int},
    "figure13": {"scale": _as_int, "sample": _as_plan, "seed": _as_int},
    "figure14": {"scale": _as_int, "sample": _as_plan, "seed": _as_int},
    "figure2": {"scale": _as_int, "seed": _as_int},
    "sensitivity": {"scale": _as_float, "chars": _as_int},
    "cost": {},
    "scorecard": {"quick": _as_bool},
    # Every knob that changes the generated programs must be listed
    # here: request_key() folds only whitelisted (coerced) parameters
    # into the coalescing key, so an omitted knob would let two
    # different computations coalesce onto one result.
    "fuzz": {"windows": _as_int, "seed": _as_int,
             "scheme": _as_choice("cbs", "brr", "mixed"),
             "blocks": _as_int, "shrink": _as_bool,
             "serve_diff": _as_bool},
    "entropy": {"scale": _as_int, "stride": _as_int,
                "sample": _as_plan, "seed": _as_int},
}


def validate_request(command: str,
                     params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The resolved, coerced parameter dict for ``command``; raises
    :class:`RequestError` on anything outside the whitelist."""
    allowed = COMMANDS.get(command)
    if allowed is None:
        raise RequestError(
            f"unknown command {command!r}; known: {sorted(COMMANDS)}")
    resolved: Dict[str, Any] = {}
    for name, value in (params or {}).items():
        coerce = allowed.get(name)
        if coerce is None:
            raise RequestError(
                f"unknown parameter {name!r} for {command!r}; "
                f"allowed: {sorted(allowed)}")
        try:
            resolved[name] = coerce(value)
        except (TypeError, ValueError) as exc:
            raise RequestError(
                f"bad value for {command}.{name}: {exc}") from exc
    return resolved


def request_key(command: str, params: Dict[str, Any]) -> str:
    """Canonical identity of a request — the coalescing key."""
    def _plain(value: Any) -> Any:
        if isinstance(value, tuple):
            return list(value)
        return value

    return json.dumps(
        {"command": command,
         "params": {name: _plain(value)
                    for name, value in sorted(params.items())}},
        sort_keys=True, separators=(",", ":"))


@dataclass
class ServeCounters:
    """Service-level telemetry, surfaced at ``/statsz`` and in the
    server's JSONL ledger."""

    #: Requests accepted (validation passed).
    requests: int = 0
    #: Requests that attached to an already-in-flight computation.
    coalesced: int = 0
    #: Distinct computations actually executed.
    simulations: int = 0
    #: Computations that raised (the error is shared by every waiter).
    errors: int = 0
    #: Requests rejected at validation (HTTP 400s).
    rejected: int = 0
    #: Requests refused by admission control (HTTP 503s): queue full,
    #: tenant over quota, or the service is draining.
    shed: int = 0
    #: Waiters whose deadline fired before their computation finished
    #: (HTTP 504s).  The shared computation itself keeps running.
    deadline_exceeded: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class TenantCounters:
    """Per-tenant fairness telemetry (the ``/statsz`` ``tenants`` map)."""

    #: Requests this tenant had admitted.
    requests: int = 0
    #: Requests refused because this tenant was over quota.
    shed: int = 0
    #: Currently-admitted requests (decrements when the waiter returns).
    active: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class ServeResult:
    """What one request answers with: the façade result plus whether
    this waiter's computation was shared."""

    command: str
    params: Dict[str, Any]
    data: Any
    text: str
    coalesced: bool = False

    def document(self) -> Dict[str, Any]:
        """The deterministic response body.  ``coalesced`` is
        deliberately excluded: concurrent identical requests must
        receive byte-identical responses."""
        params = {name: (list(value) if isinstance(value, tuple) else value)
                  for name, value in self.params.items()}
        return {"command": self.command, "params": params,
                "data": self.data, "text": self.text}


class SimulationService:
    """Validated, coalesced request execution over one shared engine."""

    def __init__(self, engine: Optional[ExperimentEngine] = None,
                 workers: int = 1,
                 queue_limit: Optional[int] = None,
                 tenant_quota: Optional[int] = None,
                 default_timeout: Optional[float] = None,
                 max_timeout: Optional[float] = None,
                 drain_timeout: Optional[float] = None) -> None:
        if engine is None:
            engine = ExperimentEngine()
        self.engine = engine
        self.counters = ServeCounters()
        self._workers = max(1, workers)
        self._slots: Optional[asyncio.Semaphore] = None
        #: request key -> the future every coalesced waiter shares.
        self._inflight: Dict[str, "asyncio.Future[ServeResult]"] = {}
        #: Serialises engine access across worker threads: the façade
        #: installs the engine as the process default around each call,
        #: and the engine's recorder/counters are not thread-safe.
        self._engine_lock = threading.Lock()
        # -- resilience knobs (constructor wins, else REPRO_SERVE_*) --
        # A malformed value raises ValueError naming the variable.
        self.queue_limit = (queue_limit if queue_limit is not None
                            else env_value(QUEUE_ENV, _at_least_one,
                                           DEFAULT_QUEUE_LIMIT))
        self.tenant_quota = (tenant_quota if tenant_quota is not None
                             else env_value(TENANT_QUOTA_ENV, _at_least_one,
                                            DEFAULT_TENANT_QUOTA))
        self.default_timeout = (default_timeout if default_timeout is not None
                                else env_value(TIMEOUT_ENV, _positive_or_none,
                                               None))
        self.max_timeout = (max_timeout if max_timeout is not None
                            else env_value(MAX_TIMEOUT_ENV, _positive_or_none,
                                           DEFAULT_MAX_TIMEOUT))
        self.drain_timeout = (drain_timeout if drain_timeout is not None
                              else env_value(DRAIN_TIMEOUT_ENV,
                                             _positive_or_none,
                                             DEFAULT_DRAIN_TIMEOUT))
        #: Currently-admitted requests (every waiter, coalesced or not).
        self._active = 0
        self._tenants: Dict[str, TenantCounters] = {}
        self._draining = False
        self._drain_report: Optional[Dict[str, Any]] = None

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has started: no new admissions."""
        return self._draining

    def _slot(self) -> asyncio.Semaphore:
        # Created lazily so the service binds to the serving loop, not
        # to whichever loop happened to be current at construction.
        if self._slots is None:
            self._slots = asyncio.Semaphore(self._workers)
        return self._slots

    # -- execution ------------------------------------------------------

    def _run_sync(self, command: str, params: Dict[str, Any]) -> ServeResult:
        """One actual simulation (worker thread; counted)."""
        from .. import api

        runner = getattr(api, f"run_{command}")
        with self._engine_lock:
            self.counters.simulations += 1
            result = runner(engine=self.engine, **params)
        return ServeResult(command=command, params=dict(params),
                           data=result.data, text=result.text)

    async def _execute(self, key: str, command: str,
                       params: Dict[str, Any]) -> ServeResult:
        loop = asyncio.get_event_loop()
        try:
            async with _acquire(self._slot()):
                return await loop.run_in_executor(
                    None, self._run_sync, command, params)
        except Exception:
            self.counters.errors += 1
            raise
        finally:
            self._inflight.pop(key, None)

    # -- admission control ----------------------------------------------

    def resolve_timeout(self, timeout: Any = None) -> Optional[float]:
        """The effective deadline for one request: the tenant's
        ``timeout`` (or the service default), capped at
        :attr:`max_timeout`.  ``None`` means no deadline.  Raises
        :class:`RequestError` on an unparseable or non-positive value.
        """
        if timeout is None:
            effective = self.default_timeout
        else:
            try:
                effective = float(timeout)
            except (TypeError, ValueError) as exc:
                raise RequestError(
                    f"bad timeout {timeout!r}: {exc}") from exc
            if effective <= 0:
                raise RequestError(
                    f"timeout must be positive, got {timeout!r}")
        if effective is None:
            return None
        if self.max_timeout is not None:
            effective = min(effective, self.max_timeout)
        return effective

    def _tenant(self, tenant: Optional[str]) -> TenantCounters:
        name = (tenant or DEFAULT_TENANT).strip() or DEFAULT_TENANT
        counters = self._tenants.get(name)
        if counters is None:
            counters = self._tenants[name] = TenantCounters()
        return counters

    def _admit(self, tenant: Optional[str]) -> TenantCounters:
        """One admission-control decision; raises :class:`Shed` when
        the request must not enter the queue."""
        bucket = self._tenant(tenant)
        if self._draining:
            self.counters.shed += 1
            bucket.shed += 1
            raise Shed("service is draining", retry_after=5.0)
        if self._active >= self.queue_limit:
            self.counters.shed += 1
            bucket.shed += 1
            raise Shed(
                f"request queue full ({self._active}/{self.queue_limit})",
                retry_after=1.0)
        if bucket.active >= self.tenant_quota:
            self.counters.shed += 1
            bucket.shed += 1
            raise Shed(
                f"tenant over quota ({bucket.active}/{self.tenant_quota})",
                retry_after=1.0)
        bucket.requests += 1
        bucket.active += 1
        self._active += 1
        return bucket

    async def submit(self, command: str,
                     params: Optional[Dict[str, Any]] = None,
                     timeout: Any = None,
                     tenant: Optional[str] = None) -> ServeResult:
        """Validate, admit, coalesce and execute one request.

        Raises :class:`RequestError` on validation failure,
        :class:`Shed` when admission control refuses the request or a
        drain cancels its computation, :class:`DeadlineExceeded` when the per-request deadline fires
        first; any other exception is whatever the underlying
        computation raised (every coalesced waiter observes the same
        one).
        """
        try:
            resolved = validate_request(command, params)
            deadline = self.resolve_timeout(timeout)
        except RequestError:
            self.counters.rejected += 1
            raise
        bucket = self._admit(tenant)
        self.counters.requests += 1
        try:
            key = request_key(command, resolved)
            future = self._inflight.get(key)
            if future is not None:
                self.counters.coalesced += 1
                coalesced = True
            else:
                future = asyncio.ensure_future(
                    self._execute(key, command, resolved))
                # A waiter abandoning its deadline-exceeded wait must
                # leave the computation running with nobody awaiting
                # it; retrieve the outcome so asyncio never logs
                # "exception was never retrieved".
                future.add_done_callback(
                    lambda task: task.cancelled() or task.exception())
                self._inflight[key] = future
                coalesced = False
            # shield: neither a cancelled waiter nor a fired deadline
            # may cancel the computation the other waiters share.
            wait: "asyncio.Future[ServeResult]" = asyncio.shield(future)
            try:
                if deadline is not None:
                    result = await asyncio.wait_for(wait, deadline)
                else:
                    result = await wait
            except asyncio.TimeoutError:
                self.counters.deadline_exceeded += 1
                raise DeadlineExceeded(
                    f"deadline of {deadline}s exceeded; the computation "
                    f"continues and will be served from cache") from None
            except asyncio.CancelledError:
                if not future.cancelled():
                    raise  # this waiter was cancelled, not the computation
                # The drain cancelled the shared computation: answer
                # like any other request the drain turns away.
                raise Shed("service drained before the computation "
                           "finished", retry_after=5.0) from None
            return (dataclasses.replace(result, coalesced=True)
                    if coalesced else result)
        finally:
            bucket.active -= 1
            self._active -= 1

    # -- graceful drain ---------------------------------------------------

    async def drain(self) -> Dict[str, Any]:
        """Stop admissions and settle in-flight work.

        New requests shed with HTTP 503 the moment this starts.
        In-flight computations get :attr:`drain_timeout` seconds to
        finish; stragglers are cancelled.  Nothing needs flushing
        afterwards: the result cache fsyncs each window's entry as it
        is written.  Idempotent — repeat calls return the first
        report.
        """
        if self._drain_report is not None:
            return self._drain_report
        self._draining = True
        pending = [future for future in self._inflight.values()
                   if not future.done()]
        completed = cancelled = 0
        if pending:
            done, not_done = await asyncio.wait(
                pending, timeout=self.drain_timeout)
            completed = len(done)
            cancelled = len(not_done)
            for future in not_done:
                future.cancel()
            with contextlib.suppress(Exception):
                await asyncio.gather(*not_done, return_exceptions=True)
        self._drain_report = {
            "drained": True,
            "inflight_completed": completed,
            "inflight_cancelled": cancelled,
        }
        return self._drain_report

    # -- telemetry ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``/statsz`` document: serve counters, admission-control
        state, per-tenant fairness counters, per-tier store
        telemetry, and the engine's run summary."""
        return {
            "serve": dict(self.counters.as_dict(),
                          inflight=len(self._inflight),
                          active=self._active,
                          draining=self._draining,
                          workers=self._workers),
            "limits": {
                "queue": self.queue_limit,
                "tenant_quota": self.tenant_quota,
                "default_timeout": self.default_timeout,
                "max_timeout": self.max_timeout,
                "drain_timeout": self.drain_timeout,
            },
            "tenants": {name: counters.as_dict()
                        for name, counters in sorted(self._tenants.items())},
            "stores": {
                "results": self.engine.cache.tier_counters(),
                "traces": self.engine.trace_store.tier_counters(),
            },
            "engine": self.engine.summary(),
        }


class _acquire:
    """``async with`` adapter for a semaphore (3.9-compatible)."""

    def __init__(self, semaphore: asyncio.Semaphore) -> None:
        self._semaphore = semaphore

    async def __aenter__(self) -> None:
        await self._semaphore.acquire()

    async def __aexit__(self, *exc_info: Any) -> None:
        self._semaphore.release()
