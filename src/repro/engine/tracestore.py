"""Content-addressed store of recorded execution traces — a typed view
over the three-tier store layer (:mod:`repro.store`).

The result cache (:mod:`repro.engine.cache`) memoises whole window
*payloads* under the full spec digest — program, seeds, markers **and**
:class:`~repro.timing.config.TimingConfig`.  The trace store sits one
level below it and is keyed by the **functional projection** of a
spec: the same digest with every timing-only parameter removed.  All
timing-config variations of one window therefore share a single
recorded functional trace — a sensitivity sweep over N configurations
pays one functional execution plus N cheap replays instead of N
lock-stepped executions (the record-once / replay-many architecture of
``docs/trace_format.md``).

The disk layout mirrors the result cache, byte-for-byte what the
pre-refactor store wrote: entries live under
``<root>/v<TRACE_STORE_VERSION>/<key[:2]>/<key>.trace``, written
atomically (temp file + ``os.replace``) so concurrent pool workers can
share one store.  The memory tier holds open
:class:`~repro.sim.trace_io.RecordedTrace` handles — a config sweep
replays the same key once per configuration, and sharing the handle
amortises the one-time columnar decode across all of them.  The handle
LRU is bounded by ``handles`` (default :data:`DEFAULT_TRACE_HANDLES`;
the engine passes
:attr:`~repro.engine.config.EngineConfig.trace_handles`).  An optional
shared backend (``EngineConfig.store_backend``) sits underneath: a
local miss fetches the recorded trace from the shared corpus instead
of paying a functional re-execution.

Every trace carries per-section CRC32s (``docs/integrity.md``); what a
failed verification becomes is the store's ``policy`` — ``verify``
(quarantine + raise), ``repair`` (the default: quarantine to
``<root>/quarantine/`` with a reason file and transparently re-record)
or ``trust`` (skip checksums; structurally broken entries are still
dropped).  The root defaults to ``<result cache root>/traces``
(override with ``REPRO_TRACE_DIR``); ``REPRO_TRACE=0`` disables the
store, falling every window back to the lock-step reference path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
from typing import Any, Dict, Optional, Tuple, Union

from ..sim.trace_io import RecordedTrace, TraceFormatError
from ..store import (
    Backend,
    Codec,
    DiskTier,
    MemoryTier,
    TieredStore,
)
from .cache import default_cache_dir, resolve_backend

#: Folded into every trace key and the on-disk layout.  Bump whenever
#: the functional semantics of window execution or the trace encoding
#: change, so stale recorded streams invalidate wholesale.  v2: the
#: BRTR v2 encoding added per-section checksums.
TRACE_STORE_VERSION = 2

#: Spec parameters that cannot change the functional instruction
#: stream — only how it is timed — and are therefore excluded from the
#: functional projection.
TIMING_ONLY_PARAMS = frozenset({"config"})

#: Default bound of the open-handle LRU (the store's memory tier).
#: Traces hold their encoded bytes plus decoded columns in memory, so
#: the default stays small; raise it via ``REPRO_TRACE_HANDLES`` or
#: :attr:`~repro.engine.config.EngineConfig.trace_handles` when a
#: sweep cycles through more distinct windows than this.
DEFAULT_TRACE_HANDLES = 4


def trace_enabled_by_env() -> bool:
    return os.environ.get("REPRO_TRACE", "1") not in ("0", "false", "no")


def default_trace_dir(cache_root: Optional[pathlib.Path] = None) -> pathlib.Path:
    """``REPRO_TRACE_DIR``, else ``traces/`` beside the result cache."""
    env = os.environ.get("REPRO_TRACE_DIR")
    if env:
        return pathlib.Path(env)
    root = cache_root if cache_root is not None else default_cache_dir()
    return pathlib.Path(root) / "traces"


def functional_key(kind: str, params: Dict[str, Any]) -> str:
    """Digest of a window's functional projection.

    ``params`` is the spec's plain-JSON parameter dict; every
    :data:`TIMING_ONLY_PARAMS` entry is dropped before hashing, which
    is exactly what lets windows that differ only in ``TimingConfig``
    share one recorded trace.
    """
    functional = {name: value for name, value in params.items()
                  if name not in TIMING_ONLY_PARAMS}
    blob = json.dumps(
        {"trace_schema": TRACE_STORE_VERSION, "kind": kind,
         "params": functional},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _TraceCodec(Codec):
    """Trace entries: BRTR files, held in memory as open handles."""

    store_title = "trace store"
    namespace = "traces"

    def load(self, path: pathlib.Path,
             verify: bool) -> Tuple[RecordedTrace, int]:
        try:
            trace = RecordedTrace.open(path, verify=verify)
        except TraceFormatError as exc:
            # Normalise onto the tier layer's DECODE_ERRORS contract
            # without losing the specific error.
            raise ValueError(str(exc)) from exc
        return trace, trace.nbytes


class TraceStore:
    """Content-addressed store mapping functional keys to trace files."""

    def __init__(self, root: Optional[pathlib.Path] = None,
                 enabled: bool = True,
                 policy: str = "repair",
                 handles: int = DEFAULT_TRACE_HANDLES,
                 backend: Union[Backend, str, None] = None,
                 pages: Optional[Dict[str, str]] = None,
                 breaker: bool = True) -> None:
        self.root = pathlib.Path(root) if root else default_trace_dir()
        self.enabled = enabled
        #: ``{functional key: shared-memory segment name}`` published
        #: by the parent engine (:mod:`repro.engine.shm_pages`); a hit
        #: attaches the parent's decoded columns zero-copy instead of
        #: re-reading and re-decoding the trace file.
        self._pages: Dict[str, str] = dict(pages or {})
        self._attached: Dict[str, Any] = {}
        codec = _TraceCodec()
        self._tiers = TieredStore(
            disk=DiskTier(self.root, TRACE_STORE_VERSION, ".trace"),
            codec=codec,
            memory=MemoryTier(max_entries=max(1, handles), max_bytes=None),
            backend=resolve_backend(backend, codec.namespace, breaker),
            policy=policy,
            # record() keeps the fresh handle hot: the recording config
            # immediately replays it, then every sibling config does.
            promote_on_put=True,
            durable=False,
        )
        self.hits = 0
        self.misses = 0
        self.bytes_written = 0

    @property
    def policy(self) -> str:
        return self._tiers.policy

    @property
    def integrity(self):
        return self._tiers.integrity

    @property
    def backend(self) -> Optional[Backend]:
        return self._tiers.backend

    @property
    def handle_limit(self) -> Optional[int]:
        """Bound of the open-handle LRU (the memory tier)."""
        return self._tiers.memory.max_entries

    def _path(self, key: str) -> pathlib.Path:
        return self._tiers.disk.path(key)

    def invalidate(self, key: str) -> None:
        """Drop the open handle for ``key``, if any.  Must be called
        whenever the underlying file is removed, quarantined or
        replaced out-of-band, or the LRU would keep serving the stale
        decoded trace."""
        self._tiers.invalidate(key)
        attached = self._attached.pop(key, None)
        if attached is not None:
            attached.close()
        self._pages.pop(key, None)

    def load(self, key: str) -> Optional[RecordedTrace]:
        """The recorded trace for ``key``, or ``None`` on a miss.

        Reads walk the tier stack — handle LRU, local disk, shared
        backend.  A corrupt entry is quarantined under
        ``verify``/``repair`` (and raises :class:`IntegrityError`
        under ``verify``); under ``trust`` checksums are skipped and
        structurally broken entries are silently dropped, as before
        the integrity layer.
        """
        if not self.enabled:
            return None
        shared = self._attach_page(key)
        if shared is not None:
            self.hits += 1
            return shared
        found = self._tiers.get(key)
        if found is None:
            self.misses += 1
            return None
        self.hits += 1
        return found[0]

    def _attach_page(self, key: str):
        """Attach the published shared-memory page for ``key``, if
        any; failures degrade silently to the tier stack."""
        if key in self._attached:
            return self._attached[key]
        name = self._pages.get(key)
        if name is None:
            return None
        from .shm_pages import attach

        shared = attach(name)
        if shared is None:
            # Unlinked or unreadable: never retry this generation.
            self._pages.pop(key, None)
            return None
        self._attached[key] = shared
        return shared

    def record(self, key: str, recorder) -> RecordedTrace:
        """Record a trace into the store (atomic, last-writer-wins).

        ``recorder(path)`` must write a complete trace file at the
        given path — typically a closure over
        :func:`repro.timing.runner.record_window`.  With a shared
        backend configured the recorded file is also published there.
        With the store disabled, the recording happens in memory and
        nothing is persisted.
        """
        if not self.enabled:
            return recorder(None)
        trace = self._tiers.put_with(key, recorder,
                                     nbytes_of=lambda t: t.nbytes)
        self.bytes_written += trace.nbytes
        return trace

    # ------------------------------------------------------------------
    # Maintenance (the `repro cache` CLI).

    def stats(self) -> Dict[str, Any]:
        """Entry/byte counts of the current-version store, the
        integrity layer's health counters, and per-tier telemetry."""
        return self._tiers.stats()

    def tier_counters(self) -> Dict[str, Any]:
        """Per-tier hit/miss/byte counters only (cheap — no disk walk)."""
        return self._tiers.tier_counters()

    def flush(self) -> Dict[str, int]:
        """Retry backend publishes that failed (graceful drain)."""
        return self._tiers.flush()

    def scan(self, repair: bool = False) -> Dict[str, Any]:
        """Verify every stored trace (the ``repro doctor`` pass).

        With ``repair``, corrupt entries are quarantined so their next
        use re-records them; without it they are only reported.
        Quarantining drops the corresponding open handle, so the LRU
        cannot keep serving the removed file.
        """
        return self._tiers.scan(repair=repair)

    def prune(self) -> int:
        """Drop stale-version subtrees, leftover temp files and the
        quarantine audit trail; returns the number of files removed.
        Open handles are invalidated: pruned files must not be served
        from the LRU."""
        if not self.root.is_dir():
            self._tiers.memory.clear()
            return 0
        return self._tiers.prune(deep_strays=True)

    def clear(self) -> int:
        """Delete every stored trace (all versions); returns the count."""
        import shutil

        removed = sum(1 for p in self.root.rglob("*.trace")) \
            if self.root.is_dir() else 0
        shutil.rmtree(self.root, ignore_errors=True)
        self._tiers.memory.clear()
        return removed


# ----------------------------------------------------------------------
# The active store.  Window runners execute deep inside the engine —
# possibly in a pool worker process — so the store travels as module
# state rather than threading through every runner signature.  The
# engine installs its store around serial execution; pool workers
# install a reconstructed one from the shipped (root, enabled) pair.

_active_store: Optional[TraceStore] = None

#: Out-of-band per-window telemetry: the most recent timed window's
#: trace usage, consumed by the engine right after the runner returns.
#: Deliberately *not* part of the payload, so cached results stay
#: byte-identical regardless of trace hit/miss history.
_last_trace_info: Optional[Dict[str, Any]] = None


def get_active_store() -> Optional[TraceStore]:
    return _active_store


def set_active_store(store: Optional[TraceStore]) -> Optional[TraceStore]:
    """Install ``store`` as the active one; returns the previous."""
    global _active_store
    previous = _active_store
    _active_store = store
    return previous


@contextlib.contextmanager
def active_store(store: Optional[TraceStore]):
    previous = set_active_store(store)
    try:
        yield store
    finally:
        set_active_store(previous)


def set_last_trace_info(info: Optional[Dict[str, Any]]) -> None:
    global _last_trace_info
    _last_trace_info = info


def consume_trace_info() -> Optional[Dict[str, Any]]:
    """Take (and clear) the last timed window's trace telemetry."""
    global _last_trace_info
    info = _last_trace_info
    _last_trace_info = None
    return info
