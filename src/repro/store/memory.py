"""The in-process memory tier: an LRU bounded by entries *and* bytes.

Top of the two-tier stack (``docs/engine.md``).  It holds decoded
values — canonical payload bytes for the result cache, open
:class:`~repro.sim.trace_io.RecordedTrace` handles for the trace store
(subsuming the old hard-coded 4-entry handle LRU) — keyed by the same
content digests as the disk tier below it.

Both bounds are optional and enforced together: inserting evicts
least-recently-used entries until the tier fits.  A single value
larger than ``max_bytes`` is never admitted (it would immediately
evict everything else for one resident entry).

Invalidation is the owner's job: whenever the disk entry underneath a
key is quarantined, pruned or replaced out-of-band, the
:class:`~repro.store.tiered.TieredStore` drops the memory entry, or
the tier would keep serving the stale value.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .base import TierCounters, env_value, parse_int

#: Default bounds of the result cache's memory tier; override with
#: ``REPRO_MEM_ENTRIES`` / ``REPRO_MEM_BYTES`` or per-store arguments.
DEFAULT_MEMORY_ENTRIES = 1024
DEFAULT_MEMORY_BYTES = 64 << 20


def memory_entries_from_env() -> int:
    return max(0, env_value("REPRO_MEM_ENTRIES", parse_int,
                          DEFAULT_MEMORY_ENTRIES))


def memory_bytes_from_env() -> int:
    return max(0, env_value("REPRO_MEM_BYTES", parse_int,
                          DEFAULT_MEMORY_BYTES))


class MemoryTier:
    """Entry- and byte-bounded LRU of decoded store values."""

    def __init__(self, max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None) -> None:
        #: ``None`` leaves a bound unenforced; 0 disables the tier.
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.counters = TierCounters()
        self.bytes = 0
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.max_entries != 0 and self.max_bytes != 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.counters.misses += 1
            return None
        self._entries.move_to_end(key)
        value, nbytes = entry
        self.counters.hits += 1
        self.counters.bytes_read += nbytes
        return value

    def put(self, key: str, value: Any, nbytes: int) -> bool:
        """Insert (or refresh) ``key``; returns True when admitted."""
        if not self.enabled:
            return False
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return False
        self.invalidate(key)
        self._entries[key] = (value, nbytes)
        self.bytes += nbytes
        self.counters.bytes_written += nbytes
        while self._over_bounds():
            evicted_key = next(iter(self._entries))
            self.invalidate(evicted_key)
            self.counters.evictions += 1
        return key in self._entries

    def _over_bounds(self) -> bool:
        if not self._entries:
            return False
        if self.max_entries is not None \
                and len(self._entries) > self.max_entries:
            return True
        return self.max_bytes is not None and self.bytes > self.max_bytes

    def invalidate(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.bytes -= entry[1]

    def clear(self) -> None:
        self._entries.clear()
        self.bytes = 0

    def stats(self) -> Dict[str, Any]:
        return dict(self.counters.as_dict(), entries=len(self._entries),
                    bytes=self.bytes, max_entries=self.max_entries,
                    max_bytes=self.max_bytes)
