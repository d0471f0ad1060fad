"""Content-addressed cache of window results — a typed view over the
three-tier store layer (:mod:`repro.store`).

On disk, results live under
``<root>/v<SCHEMA_VERSION>/<key[:2]>/<key>.json`` where ``key`` is the
spec's canonical digest (which already folds in
:data:`~repro.engine.spec.SCHEMA_VERSION`, seeds and every simulation
parameter — see ``docs/engine.md``); the layout is byte-for-byte what
the pre-refactor cache wrote.  Above the disk sits an in-process LRU
of canonical payload bytes (bounded by entries and bytes —
``REPRO_MEM_ENTRIES`` / ``REPRO_MEM_BYTES``), filled on verified
reads; below it an optional shared backend (a spec such as
``fs:<dir>``, ``EngineConfig.store_backend``) lets many replicas share
one corpus — a local miss falls through to the backend, and every
``put`` publishes back.  Entries are written
atomically (temp file + ``os.replace``), so concurrent workers and
concurrent processes sharing one cache directory never tear each
other.

Every entry embeds an integrity block — the payload's canonical
sha256 and the schema version — recomputed on read
(``docs/integrity.md``).  What a mismatch becomes is the cache's
``policy``: ``verify`` (quarantine + raise), ``repair`` (the default:
quarantine to ``<root>/quarantine/`` with a reason file and
transparently recompute — or re-fetch from the shared backend) or
``trust`` (skip digest verification; an unparseable entry is still
dropped, as before the integrity layer).

The root defaults to ``~/.cache/repro`` and is overridden by
``REPRO_CACHE_DIR``; ``REPRO_CACHE=0`` disables caching entirely.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Optional, Tuple, Union

from ..store import (
    Backend,
    Codec,
    DiskTier,
    MemoryTier,
    TieredStore,
    make_backend,
    maybe_wrap_breaker,
    memory_bytes_from_env,
    memory_entries_from_env,
    payload_digest,
)
from .spec import SCHEMA_VERSION, WindowSpec

def default_cache_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def cache_enabled_by_env() -> bool:
    return os.environ.get("REPRO_CACHE", "1") not in ("0", "false", "no")


def resolve_backend(backend: Union[Backend, str, None],
                    namespace: str,
                    breaker: bool = True) -> Optional[Backend]:
    """The shared-backend constructor argument, resolved: a live
    :class:`Backend` (used as-is — callers wrap their own), a spec
    string, or ``None`` (no shared tier).  Spec-named backends are
    wrapped in a :class:`~repro.store.backend.CircuitBreakerBackend`
    unless ``breaker`` is false."""
    if backend is None or isinstance(backend, Backend):
        return backend
    return maybe_wrap_breaker(make_backend(backend, namespace), breaker)


class _ResultCodec(Codec):
    """Result entries: JSON documents with an embedded integrity block.

    The memory tier holds the payload's canonical JSON bytes, not the
    decoded object — ``get`` decodes fresh each time, so a reducer
    mutating a returned payload cannot pollute later reads.
    """

    store_title = "result cache"
    namespace = "results"

    @staticmethod
    def check_entry(entry: Any) -> Dict[str, Any]:
        """The entry's payload, after verifying the embedded digest;
        raises ``ValueError`` on any mismatch."""
        payload = entry["result"]
        block = entry["integrity"]
        if block.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"entry schema {block.get('schema')!r} != {SCHEMA_VERSION}")
        digest = payload_digest(payload)
        if block.get("digest") != digest:
            raise ValueError(
                f"payload digest mismatch: stored "
                f"{str(block.get('digest'))[:12]}…, computed {digest[:12]}…")
        return payload

    def load(self, path: pathlib.Path,
             verify: bool) -> Tuple[Dict[str, Any], int]:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        payload = (self.check_entry(entry) if verify else entry["result"])
        try:
            nbytes = path.stat().st_size
        except OSError:
            nbytes = 0
        return payload, nbytes

    def to_memory(self, value: Dict[str, Any],
                  nbytes: int) -> Tuple[bytes, int]:
        blob = json.dumps(value, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return blob, len(blob)

    def from_memory(self, stored: bytes) -> Dict[str, Any]:
        return json.loads(stored.decode("utf-8"))


class ResultCache:
    """Content-addressed store mapping spec digests to result payloads."""

    def __init__(self, root: Optional[pathlib.Path] = None,
                 enabled: bool = True,
                 policy: str = "repair",
                 memory_entries: Optional[int] = None,
                 memory_bytes: Optional[int] = None,
                 backend: Union[Backend, str, None] = None,
                 breaker: bool = True) -> None:
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.enabled = enabled
        codec = _ResultCodec()
        self._tiers = TieredStore(
            disk=DiskTier(self.root, SCHEMA_VERSION, ".json"),
            codec=codec,
            memory=MemoryTier(
                max_entries=(memory_entries if memory_entries is not None
                             else memory_entries_from_env()),
                max_bytes=(memory_bytes if memory_bytes is not None
                           else memory_bytes_from_env())),
            backend=resolve_backend(backend, codec.namespace, breaker),
            policy=policy,
            promote_on_put=False,
            durable=True,
        )
        self.hits = 0
        self.misses = 0

    # The policy and integrity counters live on the tier stack; expose
    # them under their historical names.
    @property
    def policy(self) -> str:
        return self._tiers.policy

    @property
    def integrity(self):
        return self._tiers.integrity

    @property
    def backend(self) -> Optional[Backend]:
        return self._tiers.backend

    def _path(self, key: str) -> pathlib.Path:
        return self._tiers.disk.path(key)

    @staticmethod
    def _check_entry(entry: Any) -> Dict[str, Any]:
        return _ResultCodec.check_entry(entry)

    def get(self, spec: WindowSpec) -> Optional[Dict[str, Any]]:
        """The cached payload for ``spec``, or ``None`` on a miss.

        Reads walk the tier stack: memory LRU, then the local disk
        entry (verified per the policy — a corrupt one is quarantined
        under ``verify``/``repair``, and raises :class:`IntegrityError`
        under ``verify``), then the shared backend, whose fetch fills
        the local tiers on the way up.
        """
        if not self.enabled:
            return None
        found = self._tiers.get(spec.cache_key)
        if found is None:
            self.misses += 1
            return None
        self.hits += 1
        return found[0]

    def put(self, spec: WindowSpec, payload: Dict[str, Any]) -> bool:
        """Store ``payload`` for ``spec`` (atomic, last-writer-wins).

        The entry is flushed and fsynced *before* the rename, so a
        window that completed before a crash or SIGKILL is durably
        cached — the invariant ``repro resume`` relies on to execute
        only the missing windows.  With a shared backend configured
        the entry is also published there (best-effort).  Returns True
        when the entry landed.
        """
        if not self.enabled:
            return False
        entry = {"spec": spec.to_dict(), "result": payload,
                 "integrity": {"schema": SCHEMA_VERSION,
                               "digest": payload_digest(payload)}}
        data = json.dumps(entry, sort_keys=True).encode("utf-8")
        return self._tiers.put_bytes(spec.cache_key, data, value=payload)

    # ------------------------------------------------------------------
    # Maintenance (the `repro cache` CLI).  Only the versioned payload
    # subtrees are touched: the trace store may nest its own tree under
    # this root (``<root>/traces`` by default) and manages it itself.

    def stats(self) -> Dict[str, Any]:
        """Entry/byte counts of the current-version cache, the
        integrity layer's health counters, and per-tier telemetry."""
        return self._tiers.stats()

    def tier_counters(self) -> Dict[str, Any]:
        """Per-tier hit/miss/byte counters only (cheap — no disk walk);
        what the engine folds into its JSONL run summaries."""
        return self._tiers.tier_counters()

    def flush(self) -> Dict[str, int]:
        """Retry backend publishes that failed (graceful drain)."""
        return self._tiers.flush()

    def scan(self, repair: bool = False) -> Dict[str, Any]:
        """Verify every current-version entry (the ``repro doctor``
        pass).  With ``repair``, corrupt entries are quarantined so
        their next use recomputes them; without it they are only
        reported."""
        return self._tiers.scan(repair=repair)

    def prune(self) -> int:
        """Drop stale-version subtrees, leftover temp files and the
        quarantine audit trail; returns the number of files removed."""
        return self._tiers.prune()

    def clear(self) -> int:
        """Delete every cached payload (all versions); returns the count."""
        return self._tiers.clear()
