"""The local disk tier: the content-addressed on-disk layout.

Bottom of the two-tier stack.  The layout is exactly what
``engine/cache.py`` and ``engine/tracestore.py`` wrote before the
store refactor — ``<root>/v<version>/<key[:2]>/<key><suffix>`` — so
pre-refactor entries stay readable byte-for-byte and a version bump
still invalidates wholesale.  This module owns everything both stores
used to duplicate about that layout: path mapping, atomic+durable
writes, version-directory iteration, and the stats/prune/clear
maintenance walks.  Decoding, integrity policy and quarantine
bookkeeping live one level up, in
:class:`~repro.store.tiered.TieredStore`.
"""

from __future__ import annotations

import contextlib
import pathlib
from typing import Any, Callable, Dict, Iterator, Tuple

from .base import TierCounters, atomic_write_bytes, atomic_write_with
from .integrity import purge_quarantine


class DiskTier:
    """Versioned content-addressed file layout under one root."""

    def __init__(self, root: pathlib.Path, version: int,
                 suffix: str) -> None:
        self.root = pathlib.Path(root)
        self.version = version
        self.suffix = suffix
        self.counters = TierCounters()

    # -- layout ---------------------------------------------------------

    @property
    def version_dir(self) -> pathlib.Path:
        return self.root / f"v{self.version}"

    def path(self, key: str) -> pathlib.Path:
        return self.version_dir / key[:2] / f"{key}{self.suffix}"

    def _version_dirs(self) -> Iterator[pathlib.Path]:
        if not self.root.is_dir():
            return
        for child in self.root.iterdir():
            if child.is_dir() and child.name.startswith("v") \
                    and child.name[1:].isdigit():
                yield child

    def entries(self) -> Iterator[pathlib.Path]:
        """Every current-version entry file."""
        if self.version_dir.is_dir():
            yield from self.version_dir.rglob(f"*{self.suffix}")

    # -- writes ---------------------------------------------------------

    def write_bytes(self, key: str, data: bytes, fsync: bool = True) -> bool:
        landed = atomic_write_bytes(self.path(key), data, fsync=fsync)
        if landed:
            self.counters.bytes_written += len(data)
        return landed

    def write_with(self, key: str, writer: Callable[[str], Any]) -> Any:
        """Atomic recorder-callback write (trace-store discipline);
        returns the writer's result."""
        result, _ = atomic_write_with(self.path(key), writer)
        return result

    # -- maintenance ----------------------------------------------------

    def stats(self) -> Tuple[int, int]:
        """(entries, bytes) of the current-version tree."""
        entries = 0
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
                entries += 1
            except OSError:
                continue
        return entries, total

    def prune(self, deep_strays: bool = False) -> int:
        """Drop stale-version subtrees, leftover temp files and the
        quarantine audit trail; returns the number of files removed.

        ``deep_strays`` widens the temp-file sweep from the versioned
        subtrees to the whole root — only safe for a root this store
        owns exclusively (the trace store); the result cache's root may
        nest other stores underneath it.
        """
        import shutil

        removed = 0
        for version_dir in self._version_dirs():
            if version_dir.name == f"v{self.version}":
                continue
            removed += sum(1 for p in version_dir.rglob("*") if p.is_file())
            shutil.rmtree(version_dir, ignore_errors=True)
        stray_roots = ([self.root] if deep_strays and self.root.is_dir()
                       else list(self._version_dirs()))
        for stray_root in stray_roots:
            for stray in stray_root.rglob(".tmp-*"):
                with contextlib.suppress(OSError):
                    stray.unlink()
                    removed += 1
        removed += purge_quarantine(self.root)
        return removed

    def clear(self) -> int:
        """Delete every entry file of every version; returns the count."""
        import shutil

        removed = 0
        for version_dir in self._version_dirs():
            removed += sum(1 for p in version_dir.rglob(f"*{self.suffix}"))
            shutil.rmtree(version_dir, ignore_errors=True)
        return removed

    def stats_dict(self) -> Dict[str, Any]:
        return self.counters.as_dict()
