"""Unified two-tier storage layer (see ``docs/engine.md``).

One abstraction behind every content-addressed store in the repo: an
in-process LRU memory tier over the local disk tier (the pre-refactor
on-disk layout, byte-for-byte).
:class:`~repro.engine.cache.ResultCache` and
:class:`~repro.engine.tracestore.TraceStore` are thin typed views over
one :class:`TieredStore` each; the integrity primitives (policies,
quarantine, digests — ``docs/integrity.md``) live here too and are
re-exported by :mod:`repro.engine.integrity`.
"""

from .base import (
    Store,
    TierCounters,
    atomic_write_bytes,
    atomic_write_with,
)
from .disk import DiskTier
from .integrity import (
    INTEGRITY_POLICIES,
    QUARANTINE_DIR,
    REASON_SUFFIX,
    IntegrityCounters,
    IntegrityError,
    check_policy,
    payload_digest,
    purge_quarantine,
    quarantine_entry,
    quarantine_root,
    quarantined_entries,
)
from .memory import (
    DEFAULT_MEMORY_BYTES,
    DEFAULT_MEMORY_ENTRIES,
    MemoryTier,
    memory_bytes_from_env,
    memory_entries_from_env,
)
from .tiered import Codec, TieredStore

__all__ = [
    "Store",
    "TierCounters",
    "atomic_write_bytes",
    "atomic_write_with",
    "DiskTier",
    "INTEGRITY_POLICIES",
    "QUARANTINE_DIR",
    "REASON_SUFFIX",
    "IntegrityCounters",
    "IntegrityError",
    "check_policy",
    "payload_digest",
    "purge_quarantine",
    "quarantine_entry",
    "quarantine_root",
    "quarantined_entries",
    "DEFAULT_MEMORY_BYTES",
    "DEFAULT_MEMORY_ENTRIES",
    "MemoryTier",
    "memory_bytes_from_env",
    "memory_entries_from_env",
    "Codec",
    "TieredStore",
]
