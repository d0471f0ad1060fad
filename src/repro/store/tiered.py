"""The two-tier store: memory LRU → local disk.

One :class:`TieredStore` carries everything the result cache and the
trace store used to implement twice: the read path with per-tier
hit/miss accounting, verified decoding with the
``verify``/``repair``/``trust`` policy semantics, quarantine +
repair-pending bookkeeping, atomic writes, and the
stats/scan/prune/clear maintenance surface.  The typed views
(:class:`~repro.engine.cache.ResultCache`,
:class:`~repro.engine.tracestore.TraceStore`) map their domain keys
and value types onto it via a small :class:`Codec`.

Read path (``get``):

1. **memory** — decoded values, no verification (they were verified on
   the way in);
2. **disk** — decode + checksum per the policy; success promotes into
   memory.  A corrupt entry is quarantined (``verify`` additionally
   raises :class:`IntegrityError`); under ``repair`` it reads as a
   miss, so the caller recomputes it and the next ``put`` counts as a
   repair.

Write path (``put``): atomic durable local write, then memory
admission per the store's promotion policy.
"""

from __future__ import annotations

import contextlib
import pathlib
from typing import Any, Callable, Dict, Optional, Set, Tuple

from .disk import DiskTier
from .integrity import (
    IntegrityCounters,
    IntegrityError,
    check_policy,
    quarantine_entry,
    quarantined_entries,
)
from .memory import MemoryTier

#: Exception classes a codec's :meth:`Codec.load` may raise to signal
#: a structurally or cryptographically corrupt entry.
DECODE_ERRORS = (OSError, ValueError, KeyError, TypeError)


class Codec:
    """How one store's values cross tier boundaries."""

    #: Human prefix of integrity messages ("result cache", "trace store").
    store_title = "store"
    #: Short store name written into quarantine reason files
    #: ("results", "traces").
    namespace = "store"

    def load(self, path: pathlib.Path, verify: bool) -> Tuple[Any, int]:
        """Decode (and, when ``verify``, checksum) the entry file;
        returns ``(value, nbytes)``.  Raises one of
        :data:`DECODE_ERRORS` (or a subclass) on corruption."""
        raise NotImplementedError

    def to_memory(self, value: Any, nbytes: int) -> Tuple[Any, int]:
        """What the memory tier holds for ``value`` (and its size).
        Defaults to the value itself."""
        return value, nbytes

    def from_memory(self, stored: Any) -> Any:
        """Rehydrate a memory-tier entry back into a value."""
        return stored


class TieredStore:
    """Memory → disk composition with one policy."""

    def __init__(self, disk: DiskTier, codec: Codec,
                 memory: Optional[MemoryTier] = None,
                 policy: str = "repair",
                 promote_on_put: bool = False,
                 durable: bool = True) -> None:
        self.disk = disk
        self.codec = codec
        self.memory = memory if memory is not None else MemoryTier(0, 0)
        self.policy = check_policy(policy)
        #: Fill the memory tier on writes (trace store) or only on
        #: verified disk reads (result cache — a just-written entry is
        #: re-verified from disk on its first read, so corruption
        #: introduced between put and get is still caught).
        self.promote_on_put = promote_on_put
        #: fsync before rename on byte writes (the resume invariant).
        self.durable = durable
        self.integrity = IntegrityCounters()
        #: Keys whose entry was quarantined and awaits recomputation —
        #: the next successful ``put`` counts as a repair.
        self._repair_pending: Set[str] = set()

    # -- read path ------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[Any, str]]:
        """``(value, tier)`` for ``key``, or ``None`` on a miss.

        ``tier`` names where the value was found: ``"memory"`` or
        ``"disk"``.  Corruption follows the policy: quarantine + raise
        under ``verify``, quarantine + miss under ``repair``, unlink +
        miss under ``trust`` (structural breakage only — checksums are
        skipped).
        """
        stored = self.memory.get(key)
        if stored is not None:
            return self.codec.from_memory(stored), "memory"
        value = self._read_disk(key)
        if value is not None:
            return value, "disk"
        return None

    def _read_disk(self, key: str) -> Optional[Any]:
        """One verified decode of the local entry file; counts against
        the disk tier and promotes into memory on success."""
        counters = self.disk.counters
        path = self.disk.path(key)
        verify = self.policy != "trust"
        try:
            value, nbytes = self.codec.load(path, verify=verify)
        except FileNotFoundError:
            counters.misses += 1
            return None
        except DECODE_ERRORS as exc:
            counters.misses += 1
            if not verify:
                # Legacy behaviour: drop it and recompute.
                with contextlib.suppress(OSError):
                    path.unlink()
                return None
            self.quarantine(path, repr(exc), key=key)
            if self.policy == "verify":
                raise IntegrityError(
                    f"{self.codec.store_title} entry {key[:12]} is corrupt "
                    f"(quarantined): {exc}") from exc
            return None
        if verify:
            self.integrity.verified += 1
        counters.hits += 1
        counters.bytes_read += nbytes
        self._promote(key, value, nbytes)
        return value

    def _promote(self, key: str, value: Any, nbytes: int) -> None:
        stored, stored_nbytes = self.codec.to_memory(value, nbytes)
        self.memory.put(key, stored, stored_nbytes)

    # -- write path -----------------------------------------------------

    def put_bytes(self, key: str, data: bytes,
                  value: Optional[Any] = None) -> bool:
        """Atomically store the encoded entry; True when it landed."""
        if not self.disk.write_bytes(key, data, fsync=self.durable):
            return False
        self._note_repaired(key)
        if self.promote_on_put and value is not None:
            self._promote(key, value, len(data))
        return True

    def put_with(self, key: str, writer: Callable[[str], Any],
                 nbytes_of: Callable[[Any], int]) -> Any:
        """Atomic recorder-callback write (trace-store discipline);
        returns the writer's result."""
        value = self.disk.write_with(key, writer)
        nbytes = nbytes_of(value)
        self.disk.counters.bytes_written += nbytes
        self._note_repaired(key)
        if self.promote_on_put:
            self._promote(key, value, nbytes)
        return value

    def _note_repaired(self, key: str) -> None:
        if key in self._repair_pending:
            self._repair_pending.discard(key)
            self.integrity.repaired += 1

    # -- quarantine -----------------------------------------------------

    def quarantine(self, path: pathlib.Path, reason: str,
                   key: Optional[str] = None) -> None:
        """Move a corrupt entry aside (never delete) and drop any
        memory-tier residue so the stale value cannot be served."""
        if key is not None:
            self.memory.invalidate(key)
            self._repair_pending.add(key)
        if quarantine_entry(path, self.disk.root, reason, key=key,
                            store=self.codec.namespace) is not None:
            self.integrity.quarantined += 1

    def invalidate(self, key: str) -> None:
        self.memory.invalidate(key)

    # -- maintenance ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The view-facing stats document: the pre-refactor keys plus
        a ``tiers`` block with per-tier counters."""
        entries, nbytes = self.disk.stats()
        tiers: Dict[str, Any] = {
            "memory": self.memory.stats(),
            "disk": self.disk.counters.as_dict(),
        }
        return {
            "root": str(self.disk.root),
            "version": self.disk.version,
            "entries": entries,
            "bytes": nbytes,
            "policy": self.policy,
            "quarantined": len(quarantined_entries(self.disk.root)),
            "integrity": self.integrity.as_dict(),
            "tiers": tiers,
        }

    def tier_counters(self) -> Dict[str, Any]:
        """Counters only — cheap enough for per-run JSONL summaries."""
        return {
            "memory": self.memory.stats(),
            "disk": self.disk.counters.as_dict(),
            "integrity": self.integrity.as_dict(),
        }

    def scan(self, repair: bool = False) -> Dict[str, Any]:
        """Verify every current-version entry (the ``repro doctor``
        pass).  With ``repair``, corrupt entries are quarantined so
        their next use recomputes them; without it they are only
        reported."""
        scanned = ok = corrupt = 0
        for path in sorted(self.disk.entries()):
            scanned += 1
            try:
                self.codec.load(path, verify=True)
            except DECODE_ERRORS as exc:
                corrupt += 1
                if repair:
                    self.quarantine(path, repr(exc), key=path.stem)
            else:
                ok += 1
        return {"root": str(self.disk.root), "scanned": scanned, "ok": ok,
                "corrupt": corrupt,
                "quarantined": len(quarantined_entries(self.disk.root))}

    def prune(self, deep_strays: bool = False) -> int:
        self.memory.clear()
        return self.disk.prune(deep_strays=deep_strays)

    def clear(self) -> int:
        self.memory.clear()
        return self.disk.clear()
