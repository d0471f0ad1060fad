"""Engine configuration: one dataclass, one place to read the environment.

:class:`EngineConfig` consolidates every scalar knob of the
:class:`~repro.engine.core.ExperimentEngine` — worker count, replay
kernel, per-window timeout, retry budget and backoff, failure policy,
fault-injection rate, store policy and shared tier, and the resume
source.  It is frozen, JSON round-trippable (``to_dict``/``from_dict``)
and every field has a concrete library default, so a constructed
config never consults the environment.  :meth:`EngineConfig.from_env`
is the one function that reads the ``REPRO_*`` engine variables; a
malformed value raises ``ValueError`` naming the variable.  The table
of variables, flags and defaults lives in ``docs/engine.md``.

Live collaborators (the result cache, trace store and run recorder)
stay constructor injection on the engine itself — they are objects,
not configuration.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..store.backend import DISABLED_SPECS
from ..store.integrity import INTEGRITY_POLICIES
from ..timing.fastpath import FAST_MODES
from .integrity import VALIDATE_POLICIES
from .tracestore import DEFAULT_TRACE_HANDLES

#: Allowed values of :attr:`EngineConfig.failure_policy`.
FAILURE_POLICIES = ("raise", "retry", "skip")

_FLAG_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def _int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r}: expected an integer") from None


def _float(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r}: expected a number") from None


def _flag(name: str, raw: str) -> bool:
    try:
        return _FLAG_VALUES[raw.lower()]
    except KeyError:
        raise ValueError(f"{name}={raw!r}: expected one of "
                         f"{tuple(_FLAG_VALUES)}") from None


def _choice(choices: Tuple[str, ...]) -> Callable[[str, str], str]:
    def parse(name: str, raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"{name}={raw!r}: expected one of {choices}")
        return raw
    return parse


def _positive_or_none(parse: Callable[[str, str], Any]):
    def wrapped(name: str, raw: str):
        value = parse(name, raw)
        return value if value > 0 else None
    return wrapped


#: ``(field, variable, parser)`` for every environment-backed field;
#: parsers clamp out-of-range numbers and raise on malformed text.
_ENV_FIELDS: Tuple[Tuple[str, str, Callable[[str, str], Any]], ...] = (
    ("jobs", "REPRO_JOBS", lambda n, r: max(1, _int(n, r))),
    ("fast", "REPRO_FAST", _choice(FAST_MODES)),
    ("trace_pages", "REPRO_TRACE_PAGES", _flag),
    ("timeout", "REPRO_TIMEOUT", _positive_or_none(_float)),
    ("retries", "REPRO_RETRIES", lambda n, r: max(0, _int(n, r))),
    ("backoff", "REPRO_BACKOFF", lambda n, r: max(0.0, _float(n, r))),
    ("failure_policy", "REPRO_FAILURE_POLICY", _choice(FAILURE_POLICIES)),
    ("fault_rate", "REPRO_FAULT_RATE",
     lambda n, r: min(max(_float(n, r), 0.0), 0.999999)),
    ("integrity", "REPRO_INTEGRITY", _choice(INTEGRITY_POLICIES)),
    ("validate_every", "REPRO_VALIDATE", _positive_or_none(_int)),
    ("validate_policy", "REPRO_VALIDATE_POLICY",
     _choice(VALIDATE_POLICIES)),
    ("store_backend", "REPRO_STORE_BACKEND",
     lambda n, r: None if r.lower() in DISABLED_SPECS else r),
    ("breaker", "REPRO_BREAKER", _flag),
    ("trace_handles", "REPRO_TRACE_HANDLES", lambda n, r: max(1, _int(n, r))),
    ("seed", "REPRO_SEED", _int),
)


@dataclass(frozen=True)
class EngineConfig:
    """Every scalar knob of the experiment engine, in one place."""

    #: Worker processes per window batch; ``None`` means the caller's
    #: default (the library runs serially, the CLI uses every core).
    jobs: Optional[int] = None
    #: Replay kernel selection: ``"vector"`` (fixpoint span kernel),
    #: ``"loop"`` (per-record columnar kernel) or ``"off"`` (golden
    #: model).  The boolean spellings are deprecated and mapped to
    #: ``"vector"``/``"off"``.
    fast: str = "vector"
    #: Per-window wall-clock timeout in seconds for pool execution
    #: (``None`` = no timeout).  A window that exceeds it is treated as
    #: a transient failure: the worker is abandoned, the pool rebuilt,
    #: and the window retried/skipped per :attr:`failure_policy`.
    timeout: Optional[float] = None
    #: Transient-failure retry budget per window (crash, timeout,
    #: pickling error, injected fault).
    retries: int = 3
    #: Base backoff in seconds; attempt *n* waits ``backoff * 2**n``.
    backoff: float = 0.05
    #: What to do when a window keeps failing: ``raise`` (fail fast, no
    #: retries), ``retry`` (retry then raise), ``skip`` (retry then
    #: return a typed :class:`~repro.engine.core.WindowFailure`).
    failure_policy: str = "retry"
    #: Deterministic fault-injection probability in [0, 1) — see
    #: :mod:`repro.engine.faults`.  0 disables injection.
    fault_rate: float = 0.0
    #: Path to a prior run's JSONL log; completed windows recorded
    #: there are expected to be served from the durable result cache.
    resume_from: Optional[str] = None
    #: Store integrity policy (``verify`` | ``repair`` | ``trust``) —
    #: what a corrupt trace or cache entry becomes; see
    #: :mod:`repro.engine.integrity`.
    integrity: str = "repair"
    #: Cross-check every n-th fast-path replay against the golden
    #: lock-step model (``None``/0 disables the watchdog).
    validate_every: Optional[int] = None
    #: What a watchdog divergence becomes: ``warn`` (keep fast stats,
    #: log), ``fallback`` (return golden stats), ``raise`` (abort).
    validate_policy: str = "fallback"
    #: Shared store-backend spec (``fs://<dir>`` or a bare directory);
    #: ``None`` disables the shared tier — see :mod:`repro.store.backend`.
    store_backend: Optional[str] = None
    #: Wrap the shared backend in a
    #: :class:`~repro.store.backend.CircuitBreakerBackend` so a flaky
    #: or hung backend degrades the stores to local-tiers-only instead
    #: of stalling every request.  The breaker's thresholds come from
    #: ``REPRO_BREAKER_*`` (see ``docs/serve.md``).
    breaker: bool = True
    #: Bound of the trace store's open-handle LRU.
    trace_handles: int = DEFAULT_TRACE_HANDLES
    #: Uniform experiment seed (``--seed`` / ``REPRO_SEED``): the
    #: default workload seed for seeded figures *and* the default
    #: :class:`~repro.stats.plan.SamplingPlan` selection seed.  ``None``
    #: keeps each experiment's historical per-figure default.
    seed: Optional[int] = None
    #: Publish decoded trace columns as ``multiprocessing``
    #: shared-memory pages for pool workers (zero-copy attach instead
    #: of a per-worker decode).  Serial runs ignore it.
    trace_pages: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.fast, bool):
            warnings.warn(
                "EngineConfig(fast=True/False) is deprecated; pass "
                "fast='vector' or fast='off'",
                DeprecationWarning, stacklevel=3)
            object.__setattr__(self, "fast",
                               "vector" if self.fast else "off")
        if self.fast not in FAST_MODES:
            raise ValueError(
                f"fast must be one of {FAST_MODES}, got {self.fast!r}")
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if not 0.0 <= self.fault_rate < 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1), got {self.fault_rate}")
        if self.integrity not in INTEGRITY_POLICIES:
            raise ValueError(
                f"integrity must be one of {INTEGRITY_POLICIES}, "
                f"got {self.integrity!r}")
        if self.validate_every is not None and self.validate_every < 0:
            raise ValueError(
                f"validate_every must be >= 0, got {self.validate_every}")
        if self.validate_policy not in VALIDATE_POLICIES:
            raise ValueError(
                f"validate_policy must be one of {VALIDATE_POLICIES}, "
                f"got {self.validate_policy!r}")
        if self.trace_handles < 1:
            raise ValueError(
                f"trace_handles must be >= 1, got {self.trace_handles}")

    # ------------------------------------------------------------------

    @classmethod
    def from_env(cls, **overrides: Any) -> "EngineConfig":
        """Resolve every ``REPRO_*`` engine variable; ``overrides`` win.

        Unset or empty variables keep the field default; a value that
        does not parse raises ``ValueError`` naming the variable.
        """
        values: Dict[str, Any] = {}
        for field, name, parse in _ENV_FIELDS:
            raw = os.environ.get(name, "").strip()
            if raw:
                values[field] = parse(name, raw)
        values.update(overrides)
        return cls(**values)

    def with_overrides(self, **overrides: Any) -> "EngineConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown EngineConfig fields: {sorted(unknown)}")
        return cls(**dict(data))
