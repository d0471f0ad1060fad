"""Shared store plumbing: the tier protocol, counters, atomic writes.

Both tiers of a :class:`~repro.store.tiered.TieredStore` — in-process
memory and local disk — expose the same telemetry shape
(:class:`TierCounters`) so ``repro cache stats`` and ``/statsz`` can
render the whole stack uniformly.  The atomic-write helpers implement
the one concurrency discipline the disk tier relies on: write to
a same-directory temp file, optionally fsync, then ``os.replace`` —
so two processes ``put()``-ing the same key both succeed and readers
never observe a torn entry (last writer wins, byte-complete either
way).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, Protocol, Tuple


@dataclass
class TierCounters:
    """Hit/miss/byte telemetry of one store tier, this process."""

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Entries dropped to stay under the tier's bounds (memory tier).
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class Store(Protocol):
    """What the engine expects of any store: typed get/put plus the
    maintenance surface the ``repro cache`` / ``repro doctor`` CLIs
    drive.  :class:`~repro.engine.cache.ResultCache` and
    :class:`~repro.engine.tracestore.TraceStore` are the two live
    implementations — thin typed views over one
    :class:`~repro.store.tiered.TieredStore` each."""

    root: pathlib.Path
    enabled: bool
    policy: str

    def stats(self) -> Dict[str, Any]: ...

    def scan(self, repair: bool = False) -> Dict[str, Any]: ...

    def prune(self) -> int: ...

    def clear(self) -> int: ...


def atomic_write_bytes(path: pathlib.Path, data: bytes,
                       fsync: bool = True) -> bool:
    """Atomically (and, by default, durably) replace ``path`` with
    ``data``.  Concurrent writers of the same path never tear each
    other: each writes its own temp file and the final ``os.replace``
    is atomic — last writer wins.  Returns True when the bytes landed.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="wb", dir=path.parent, prefix=".tmp-",
        suffix=path.suffix, delete=False)
    try:
        with handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(handle.name, path)
        return True
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(handle.name)
        return False


def atomic_write_with(path: pathlib.Path,
                      writer: Callable[[str], Any]) -> Tuple[Any, bool]:
    """Atomically replace ``path`` with whatever ``writer(tmp_path)``
    produces — the recorder-callback discipline of the trace store,
    where the encoder streams straight to a file.  Returns
    ``(writer result, landed)``; on a writer exception the temp file
    is removed and the exception propagates.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix, delete=False)
    handle.close()
    try:
        result = writer(handle.name)
        os.replace(handle.name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(handle.name)
        raise
    return result, True


_FLAG_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def parse_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r}: expected an integer") from None


def parse_float(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r}: expected a number") from None


def parse_flag(name: str, raw: str) -> bool:
    try:
        return _FLAG_VALUES[raw.lower()]
    except KeyError:
        raise ValueError(f"{name}={raw!r}: expected one of "
                         f"{tuple(_FLAG_VALUES)}") from None


def env_value(name: str, parse: Callable[[str, str], Any], default: Any) -> Any:
    """Environment variable ``name`` parsed by ``parse(name, raw)``;
    ``default`` when unset or blank.  A malformed value raises
    ``ValueError`` naming the variable — it never falls back silently.
    The ``REPRO_*`` engine variables (:mod:`repro.engine.config`) and
    the store-level ones share these parsers."""
    raw = os.environ.get(name, "").strip()
    return parse(name, raw) if raw else default
