"""The shared backend tier: a pluggable cross-replica object store.

Bottom of the three-tier stack.  A :class:`Backend` moves whole entry
*files* — it never decodes them — between a replica's local disk tier
and some shared medium, addressed by the disk tier's relative entry
name (``v<N>/<key[:2]>/<key><suffix>``).  Because entries are
content-addressed and checksummed (``docs/integrity.md``), a fetched
file is verified locally before anything trusts it; a backend
therefore needs no integrity story of its own, only atomicity.

The reference implementation is :class:`FilesystemBackend`: a shared
directory (NFS mount, bind-mounted volume, ...) that many ``repro
serve`` replicas point at with ``REPRO_STORE_BACKEND=fs:/path`` (the
``fs:`` scheme prefix is optional).  Each logical store namespaces
itself (``<root>/results/...``, ``<root>/traces/...``) so one backend
root carries the whole corpus.  New schemes register via
:func:`register_backend_scheme`.

A shared medium is the one tier a replica does not control: it can
stall, vanish, or flake without warning.  :class:`CircuitBreakerBackend`
is the resilience wrapper the tiered stores put around whatever
backend a spec names (``EngineConfig.breaker``, default on): every call gets
a wall-clock budget (a hung NFS read becomes a miss, not a hung
request), transient errors retry with exponential backoff, and a run
of consecutive failures *opens* the breaker — calls then fail fast
(the store degrades to local-tiers-only) until a cooldown admits one
half-open probe, whose success closes the breaker again.  State
transitions and shed-call counts ride along in :meth:`Backend.stats`,
so ``/statsz`` and ``repro cache stats`` show the breaker working.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import shutil
import tempfile
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

from .base import TierCounters, env_value, parse_float, parse_int

#: Backend specs that mean "no shared backend".
DISABLED_SPECS = ("", "0", "none", "off", "no")


class Backend:
    """Interface of a shared store backend (file-granular, atomic)."""

    #: Scheme the backend registered under (telemetry only).
    scheme = "abstract"

    def __init__(self) -> None:
        self.counters = TierCounters()

    def fetch(self, name: str, dest: pathlib.Path) -> bool:
        """Copy entry ``name`` into local file ``dest`` (atomically);
        True when the entry existed and landed."""
        raise NotImplementedError

    def push(self, name: str, src: pathlib.Path) -> bool:
        """Publish local file ``src`` as entry ``name`` (atomically);
        True when it landed.  Pushes are best-effort: a failure leaves
        the local tiers authoritative and is reported via counters."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.scheme

    def stats(self) -> Dict[str, Any]:
        return dict(self.counters.as_dict(), backend=self.describe())


class FilesystemBackend(Backend):
    """Shared-directory backend (NFS-style): the reference implementation.

    Both directions copy through a same-directory temp file and
    ``os.replace``, so concurrent replicas pushing the same
    content-addressed entry cannot tear each other — last writer wins
    with identical bytes.
    """

    scheme = "fs"

    def __init__(self, root: pathlib.Path) -> None:
        super().__init__()
        self.root = pathlib.Path(root)

    def _atomic_copy(self, src: pathlib.Path, dest: pathlib.Path) -> int:
        dest.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=dest.parent, prefix=".tmp-", suffix=dest.suffix,
            delete=False)
        handle.close()
        try:
            shutil.copyfile(src, handle.name)
            nbytes = os.path.getsize(handle.name)
            os.replace(handle.name, dest)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(handle.name)
            raise
        return nbytes

    def fetch(self, name: str, dest: pathlib.Path) -> bool:
        src = self.root / name
        try:
            nbytes = self._atomic_copy(src, pathlib.Path(dest))
        except (OSError, ValueError):
            self.counters.misses += 1
            return False
        self.counters.hits += 1
        self.counters.bytes_read += nbytes
        return True

    def push(self, name: str, src: pathlib.Path) -> bool:
        try:
            nbytes = self._atomic_copy(pathlib.Path(src), self.root / name)
        except (OSError, ValueError):
            return False
        self.counters.bytes_written += nbytes
        return True

    def describe(self) -> str:
        return f"fs:{self.root}"


# ----------------------------------------------------------------------
# The circuit breaker: how a flaky shared backend degrades the store
# to local-tiers-only instead of hanging or erroring every request.

#: The breaker's states, in the classic pattern's vocabulary.
BREAKER_STATES = ("closed", "open", "half_open")


class BackendUnavailable(OSError):
    """A backend call exceeded its wall-clock budget (the worker thread
    is abandoned) or was refused because the breaker is open."""


class CircuitBreakerBackend(Backend):
    """Retry + timeout + open/half-open/closed wrapper around a backend.

    Semantics per call (``fetch`` or ``push``):

    * **closed** — delegate, with each attempt bounded by
      ``call_timeout`` seconds (a hung call is abandoned on its daemon
      thread and counts as a failure).  A failed attempt retries up to
      ``retries`` times with ``backoff * 2**attempt`` sleeps; only an
      exhausted call counts against the breaker.  ``failures``
      consecutive exhausted calls open the breaker.
    * **open** — fail fast (``False`` — a miss / unpublished push)
      without touching the backend, until ``reset_after`` seconds have
      passed.
    * **half-open** — after the cooldown exactly one probe call is
      admitted; success closes the breaker, failure re-opens it (and
      restarts the cooldown).  Concurrent calls during the probe fail
      fast.

    The wrapper is transparent on the happy path: byte counters belong
    to the wrapped backend (``counters`` is delegated), and a breaker
    around a healthy backend only adds the per-call time budget.
    ``clock``/``sleep`` are injectable for deterministic tests.
    """

    scheme = "breaker"

    def __init__(self, inner: Backend, *,
                 failures: int = 5,
                 reset_after: float = 30.0,
                 call_timeout: Optional[float] = 5.0,
                 retries: int = 1,
                 backoff: float = 0.05,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures}")
        if reset_after < 0:
            raise ValueError(
                f"reset_after must be >= 0, got {reset_after}")
        if call_timeout is not None and call_timeout <= 0:
            raise ValueError(
                f"call_timeout must be positive, got {call_timeout}")
        self.inner = inner
        self.failure_threshold = failures
        self.reset_after = reset_after
        self.call_timeout = call_timeout
        self.retries = max(0, retries)
        self.backoff = max(0.0, backoff)
        self._clock = clock
        self._sleep = sleep
        self._born = clock()
        self._lock = threading.Lock()
        self.state = "closed"
        self._consecutive = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        #: Telemetry: calls admitted, exhausted failures, per-call
        #: timeouts, calls shed while open, and state transitions.
        self.calls = 0
        self.failures = 0
        self.timeouts = 0
        self.fast_failed = 0
        self.opens = 0
        self.half_opens = 0
        self.closes = 0
        self.transitions: Deque[Dict[str, Any]] = deque(maxlen=32)

    # Byte/hit accounting belongs to the backend doing the IO.
    @property
    def counters(self) -> TierCounters:
        return self.inner.counters

    # -- state machine ---------------------------------------------------

    def _transition(self, state: str) -> None:
        """Record a state change (callers hold the lock)."""
        self.state = state
        self.transitions.append(
            {"to": state, "at": round(self._clock() - self._born, 3)})
        if state == "open":
            self.opens += 1
            self._opened_at = self._clock()
        elif state == "half_open":
            self.half_opens += 1
        elif state == "closed":
            self.closes += 1

    def _admit(self) -> bool:
        """Whether this call may touch the backend."""
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                assert self._opened_at is not None
                if self._clock() - self._opened_at < self.reset_after:
                    return False
                self._transition("half_open")
                self._probing = True
                return True
            # half_open: exactly one probe in flight.
            if self._probing:
                return False
            self._probing = True
            return True

    def _on_success(self) -> None:
        with self._lock:
            self._consecutive = 0
            if self.state == "half_open":
                self._probing = False
                self._transition("closed")

    def _on_failure(self) -> None:
        with self._lock:
            self.failures += 1
            if self.state == "half_open":
                self._probing = False
                self._transition("open")
                return
            if self.state == "closed":
                self._consecutive += 1
                if self._consecutive >= self.failure_threshold:
                    self._consecutive = 0
                    self._transition("open")

    # -- call plumbing ----------------------------------------------------

    def _timed(self, call: Callable[..., Any], args: tuple) -> Any:
        """One attempt under the wall-clock budget.  A call that
        outlives the budget keeps running on its daemon thread (it
        cannot be pre-empted) but this caller moves on — the hang costs
        one abandoned thread, never a hung request."""
        if self.call_timeout is None:
            return call(*args)
        box: Dict[str, Any] = {}

        def runner() -> None:
            try:
                box["value"] = call(*args)
            except BaseException as exc:  # delivered to the caller below
                box["error"] = exc

        thread = threading.Thread(target=runner, daemon=True,
                                  name="repro-backend-call")
        thread.start()
        thread.join(self.call_timeout)
        if thread.is_alive():
            self.timeouts += 1
            raise BackendUnavailable(
                f"backend call exceeded {self.call_timeout}s "
                f"({self.inner.describe()})")
        if "error" in box:
            raise box["error"]
        return box["value"]

    def _guarded(self, call: Callable[..., Any], *args: Any) -> Any:
        if not self._admit():
            self.fast_failed += 1
            return False
        self.calls += 1
        attempt = 0
        while True:
            try:
                result = self._timed(call, args)
            except Exception:
                if attempt < self.retries:
                    self._sleep(self.backoff * (2 ** attempt))
                    attempt += 1
                    continue
                self._on_failure()
                return False
            self._on_success()
            return result

    # -- Backend interface -------------------------------------------------

    def fetch(self, name: str, dest: pathlib.Path) -> bool:
        return bool(self._guarded(self.inner.fetch, name, dest))

    def push(self, name: str, src: pathlib.Path) -> bool:
        return bool(self._guarded(self.inner.push, name, src))

    def describe(self) -> str:
        return f"breaker({self.inner.describe()})"

    def breaker_stats(self) -> Dict[str, Any]:
        """The breaker block of :meth:`stats` (state + transitions)."""
        with self._lock:
            return {
                "state": self.state,
                "calls": self.calls,
                "failures": self.failures,
                "timeouts": self.timeouts,
                "fast_failed": self.fast_failed,
                "opens": self.opens,
                "half_opens": self.half_opens,
                "closes": self.closes,
                "failure_threshold": self.failure_threshold,
                "reset_after": self.reset_after,
                "call_timeout": self.call_timeout,
                "transitions": list(self.transitions),
            }

    def stats(self) -> Dict[str, Any]:
        return dict(self.counters.as_dict(), backend=self.describe(),
                    breaker=self.breaker_stats())


def breaker_from_env(inner: Backend) -> CircuitBreakerBackend:
    """A breaker around ``inner``, tuned by ``REPRO_BREAKER_*``; a
    malformed value raises ``ValueError`` naming the variable."""
    timeout = env_value("REPRO_BREAKER_TIMEOUT", parse_float, 5.0)
    return CircuitBreakerBackend(
        inner,
        failures=max(1, env_value("REPRO_BREAKER_FAILURES", parse_int, 5)),
        reset_after=max(0.0, env_value("REPRO_BREAKER_RESET", parse_float,
                                       30.0)),
        call_timeout=timeout if timeout > 0 else None,
        retries=max(0, env_value("REPRO_BREAKER_RETRIES", parse_int, 1)),
        backoff=max(0.0, env_value("REPRO_BREAKER_BACKOFF", parse_float,
                                   0.05)),
    )


def maybe_wrap_breaker(backend: Optional[Backend],
                       enabled: bool = True) -> Optional[Backend]:
    """Wrap ``backend`` in a circuit breaker unless disabled; an
    already-wrapped backend (or ``None``) passes through untouched."""
    if backend is None or isinstance(backend, CircuitBreakerBackend):
        return backend
    return breaker_from_env(backend) if enabled else backend


#: scheme -> factory(rest-of-spec, namespace) -> Backend
_SCHEMES: Dict[str, Callable[[str, str], Backend]] = {}


def register_backend_scheme(
        scheme: str, factory: Callable[[str, str], Backend]) -> None:
    """Register a backend scheme for ``REPRO_STORE_BACKEND=<scheme>:...``."""
    _SCHEMES[scheme] = factory


register_backend_scheme(
    "fs", lambda rest, namespace: FilesystemBackend(
        pathlib.Path(rest) / namespace))


def make_backend(spec: Optional[str], namespace: str) -> Optional[Backend]:
    """Build the shared backend a spec string names, or ``None``.

    ``spec`` is ``<scheme>:<rest>`` (a bare path implies ``fs:``);
    ``namespace`` keeps each logical store's entries apart under one
    shared root (``results`` / ``traces``).  Unset/disabled specs
    return ``None``; an unknown scheme raises ``ValueError``.
    """
    if spec is None or spec.strip().lower() in DISABLED_SPECS:
        return None
    spec = spec.strip()
    scheme, sep, rest = spec.partition(":")
    if not sep or len(scheme) <= 1:  # bare path (incl. "C:..."-style)
        scheme, rest = "fs", spec
    factory = _SCHEMES.get(scheme)
    if factory is None:
        raise ValueError(
            f"unknown store backend scheme {scheme!r} in {spec!r}; "
            f"known: {sorted(_SCHEMES)}")
    return factory(rest, namespace)

