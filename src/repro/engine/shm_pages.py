"""Shared-memory trace pages: zero-copy decoded columns for pool workers.

A recorded trace is decoded into struct-of-arrays columns exactly once
per process (:meth:`repro.sim.trace_io.RecordedTrace.columns`).  Under
the process pool that "once" multiplies: every worker re-reads the
encoded file and pays its own columnar decode.  A *trace page* moves
the decode to the parent: the engine publishes the decoded columns of
each recorded trace into one ``multiprocessing.shared_memory`` segment
and ships the ``{functional key: segment name}`` map with the worker
configuration; workers map the segment and wrap it in a
:class:`SharedTrace` — an API-compatible, read-only stand-in for
:class:`~repro.sim.trace_io.RecordedTrace` whose column buffers are
``memoryview`` casts straight into the shared mapping (no copy, no
decode, no encoded-file read).

Segment layout (little-endian, 8-byte aligned sections)::

    [u64 header length][header JSON][pad]
    [pc: i64 × n][word_id: i64 × n][next_pc: i64 × n][mem_addr: i64 × n]
    [taken: u8 × n][pad][words: i64 × n_words]

The header JSON carries the record count, the marker index, the
encoded trace size (for telemetry parity) and ``n_words``; the word
dictionary travels as raw 32-bit instruction words and is re-decoded
on attach (``decode`` ∘ ``encode`` is exact, and the dictionary is
tiny next to the columns).

Lifecycle — the part that must not leak:

* the **parent** owns every segment through a :class:`TracePageRegistry`
  and is the only unlinker: :meth:`TracePageRegistry.unlink_all` runs
  when the engine's pool shuts down *and* whenever a crashed/hung
  worker forces a pool rebuild (fresh pages are published for the new
  pool).  ``tests/test_engine_faults.py`` leak-checks ``/dev/shm``
  across both paths;
* **workers** only ever attach and close.  Attaching maps the backing
  ``/dev/shm`` file read-only with plain :mod:`mmap` rather than
  ``SharedMemory(name=...)``: the latter would register the segment
  with Python's resource tracker (which the forked workers share with
  the parent, so worker exits would race the parent's unlink) and its
  destructor complains loudly when column views outlive it.  A raw
  mapping involves no tracker and unmaps silently once the last view
  dies.

``REPRO_TRACE_PAGES=0`` disables publication; attach failures of any
kind degrade silently to the normal store path (disk read + local
decode), so pages are strictly an amortisation, never a correctness
dependency.
"""

from __future__ import annotations

import json
import mmap
import os
import secrets
from typing import Dict, Iterator, List, Optional

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - shm-less platform
    _shm = None

from ..isa.instructions import Instruction, decode, encode
from ..sim.trace import TraceRecord
from ..sim.trace_io import RecordedTrace, TraceColumns

#: Segment-name prefix; the leak checks match on it.
PAGE_PREFIX = "rtpg"

_ALIGN = 8


def pages_supported() -> bool:
    """Whether this platform can create shared-memory segments."""
    return _shm is not None


def _pad(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedTrace:
    """Read-only :class:`RecordedTrace` stand-in over an attached page.

    Exposes the replay surface — ``marker_step``, ``columns``,
    ``records``, ``n_records``/``len``, ``nbytes`` — with column
    buffers that are views into the shared mapping.  ``close()``
    detaches the mapping; it never unlinks.
    """

    def __init__(self, owner, meta: Dict[str, object],
                 cols: TraceColumns) -> None:
        self._owner = owner  # mmap.mmap or SharedMemory; never unlinked
        self.n_records = int(meta["n_records"])
        self.markers: Dict[int, List[int]] = {
            int(mid): [int(s) for s in steps]
            for mid, steps in meta["markers"].items()}
        self.nbytes = int(meta["nbytes"])
        self.source = None
        self._cols = cols

    def __len__(self) -> int:
        return self.n_records

    def marker_step(self, marker_id: int, count: int) -> int:
        return RecordedTrace.marker_step(self, marker_id, count)

    def columns(self, chunk_records: int = 1 << 15) -> TraceColumns:
        """The shared columns; already decoded, so ``chunk_records``
        is accepted for signature parity and ignored."""
        return self._cols

    def records(self) -> Iterator[TraceRecord]:
        """Reconstruct the per-record object stream from the columns
        (the golden replay path's input)."""
        cols = self._cols
        instrs = cols.instrs
        for i in range(self.n_records):
            word_id = cols.word_id[i]
            mem = cols.mem_addr[i]
            yield TraceRecord(
                cols.pc[i],
                instrs[word_id] if word_id >= 0 else None,
                cols.next_pc[i],
                taken=bool(cols.taken[i]),
                mem_addr=None if mem < 0 else mem,
            )

    def close(self) -> None:
        """Drop the column views and try to unmap.  With views still
        referenced elsewhere the unmap is deferred to their collection
        (a raw ``mmap`` unmaps silently once the last export dies)."""
        self._cols = None
        owner, self._owner = self._owner, None
        if owner is not None:
            try:
                owner.close()
            except (BufferError, OSError):  # pragma: no cover
                pass


def _columns_from_buffer(buf: memoryview, meta: Dict[str, object]
                         ) -> TraceColumns:
    """Wrap a mapped segment's payload in a :class:`TraceColumns`
    whose buffers are views into the mapping (zero-copy)."""
    n = int(meta["n_records"])
    n_words = int(meta["n_words"])
    offset = _pad(8 + int(meta["header_bytes"]))
    columns = {}
    for field in ("pc", "word_id", "next_pc", "mem_addr"):
        columns[field] = buf[offset:offset + 8 * n].cast("q")
        offset += 8 * n
    taken = buf[offset:offset + n]
    offset = _pad(offset + n)
    words = buf[offset:offset + 8 * n_words].cast("q")
    return TraceColumns.from_arrays(
        taken=taken, instrs=[decode(word) for word in words],
        has_trapped=bool(meta["has_trapped"]), **columns)


def _pack_into(buf: memoryview, trace, header: bytes) -> None:
    cols = trace.columns()
    n = cols.n_records
    buf[0:8] = len(header).to_bytes(8, "little")
    buf[8:8 + len(header)] = header
    offset = _pad(8 + len(header))
    for field in ("pc", "word_id", "next_pc", "mem_addr"):
        raw = memoryview(getattr(cols, field)).cast("B")
        buf[offset:offset + 8 * n] = raw
        offset += 8 * n
    buf[offset:offset + n] = memoryview(cols.taken)
    offset = _pad(offset + n)
    for i, instr in enumerate(cols.instrs):
        buf[offset + 8 * i:offset + 8 * (i + 1)] = \
            encode(instr).to_bytes(8, "little")


def _map_readonly(name: str):
    """Map a segment's backing file read-only; ``(owner, buffer)`` or
    ``None``.  The direct ``/dev/shm`` mapping is preferred (no
    resource tracker, silent teardown); ``SharedMemory`` attachment is
    the fallback for other shm filesystem layouts."""
    try:
        with open(os.path.join("/dev/shm", name), "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        return mapped, memoryview(mapped)
    except (OSError, ValueError):
        pass
    if _shm is None:  # pragma: no cover - shm-less platform
        return None
    try:  # pragma: no cover - non-/dev/shm layout
        shm = _shm.SharedMemory(name=name)
    except (FileNotFoundError, OSError, ValueError):
        return None
    return shm, shm.buf  # pragma: no cover


def attach(name: str) -> Optional[SharedTrace]:
    """Map a published page by segment name; ``None`` on any failure
    (unlinked segment, truncated header, shm-less platform)."""
    mapping = _map_readonly(name)
    if mapping is None:
        return None
    owner, buf = mapping
    try:
        header_bytes = int.from_bytes(bytes(buf[0:8]), "little")
        meta = json.loads(bytes(buf[8:8 + header_bytes]).decode("utf-8"))
        meta["header_bytes"] = header_bytes
        cols = _columns_from_buffer(buf, meta)
        return SharedTrace(owner, meta, cols)
    except Exception:
        try:
            owner.close()
        except (BufferError, OSError):  # pragma: no cover
            pass
        return None


class TracePageRegistry:
    """Parent-side owner of every published page.

    The registry is the single unlink authority: segments live exactly
    as long as the pool generation they serve, and
    :meth:`unlink_all` is idempotent so shutdown and rebuild paths can
    both call it without coordination.
    """

    def __init__(self) -> None:
        self._pages: Dict[str, object] = {}   # key -> SharedMemory
        self._names: Dict[str, str] = {}      # key -> segment name

    def __len__(self) -> int:
        return len(self._pages)

    def names(self) -> Dict[str, str]:
        """The ``{functional key: segment name}`` map shipped to
        workers (a copy — the registry keeps ownership)."""
        return dict(self._names)

    def publish(self, key: str, trace) -> Optional[str]:
        """Publish ``trace``'s decoded columns as a page for ``key``;
        returns the segment name, or ``None`` when shared memory is
        unavailable (never raises — pages are best-effort)."""
        if _shm is None:
            return None
        if key in self._names:
            return self._names[key]
        cols = trace.columns()
        n = cols.n_records
        header = json.dumps({
            "n_records": n,
            "n_words": len(cols.instrs),
            "nbytes": trace.nbytes,
            "has_trapped": cols.has_trapped,
            "markers": {str(mid): steps
                        for mid, steps in trace.markers.items()},
        }, separators=(",", ":")).encode("utf-8")
        size = (_pad(8 + len(header)) + 4 * 8 * n + _pad(n)
                + 8 * len(cols.instrs))
        name = f"{PAGE_PREFIX}_{os.getpid():x}_{secrets.token_hex(4)}"
        try:
            shm = _shm.SharedMemory(name=name, create=True,
                                    size=max(size, 1))
        except OSError:  # pragma: no cover - /dev/shm full or absent
            return None
        try:
            _pack_into(shm.buf, trace, header)
        except Exception:
            shm.close()
            try:
                shm.unlink()
            except OSError:  # pragma: no cover
                pass
            raise
        self._pages[key] = shm
        self._names[key] = name
        return name

    def unlink_all(self) -> int:
        """Close and unlink every page; returns how many were
        unlinked.  Safe to call repeatedly."""
        count = 0
        for shm in self._pages.values():
            try:
                shm.close()
            except (BufferError, OSError):  # pragma: no cover
                pass
            try:
                shm.unlink()
                count += 1
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._pages.clear()
        self._names.clear()
        return count


def leaked_pages() -> List[str]:
    """Names of trace-page segments still present in ``/dev/shm`` —
    the fault suite's leak check (empty on non-Linux layouts)."""
    shm_dir = "/dev/shm"
    try:
        return sorted(entry for entry in os.listdir(shm_dir)
                      if entry.startswith(PAGE_PREFIX))
    except OSError:  # pragma: no cover
        return []
