"""Compact binary encoding of :class:`TraceRecord` streams.

The record-once / replay-many workflow (``docs/trace_format.md``)
serialises one functional execution so the timing model can be run
over it arbitrarily many times without re-stepping the functional
simulator.  The format is built for that consumer:

* **delta/flag compression** — straight-line code costs two bytes per
  record (flags + word-dictionary index): the PC is implied by the
  previous record's ``next_pc``, sequential ``next_pc`` is implied by
  ``pc + 4``, and each distinct instruction word is encoded once, then
  referenced by its first-appearance index (programs re-execute the
  same few hundred words, so indices stay one or two bytes);
* **versioned header** — decoding refuses traces written by an
  incompatible encoder, so a stale on-disk trace store entry can never
  silently corrupt a replay;
* **marker index footer** — every ``marker`` firing is indexed by
  ``(marker id, cumulative count) -> step``, so fast-forward, window
  begin and window end points resolve without touching a single record;
* **per-section CRC32s** — the footer carries one checksum per
  section (header, record payload, marker index), verified on read,
  so a flipped byte anywhere in a stored trace is *detected* instead
  of silently poisoning every replay of it (``docs/integrity.md``).
  Pass ``verify=False`` to skip the check (the store's ``trust``
  policy); structural validation always runs.

Streams are written through :class:`TraceWriter` (incremental, so the
recording machine never materialises the trace in memory) and read
back through :class:`RecordedTrace`, whose :meth:`~RecordedTrace.records`
iterator decodes lazily.  :func:`record_trace` is the recording loop
itself: it executes a machine and writes the writer's bytes and the
replay columns (:class:`TraceColumns`) in one pass, so a fresh
recording is never decoded.
"""

from __future__ import annotations

import io
import json
import pathlib
import struct
import zlib
from array import array
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..isa.instructions import (
    Instruction,
    InvalidOpcodeError,
    Op,
    decode,
    encode,
)
from .machine import _COND, _JUMP, _LINE
from .trace import TraceRecord

#: File magic, also used as the footer terminator.
TRACE_MAGIC = b"BRTR"

#: Bump whenever the record encoding or index layout changes; readers
#: reject any other version.  v2 added the per-section CRC32s to the
#: footer.
TRACE_VERSION = 2

#: Header: magic + u8 version + 3 reserved bytes.
_HEADER = struct.Struct("<4sB3x")

#: Footer: CRC32 of the header, record payload and marker index, then
#: the u64 little-endian index offset and the magic terminator.
_FOOTER = struct.Struct("<IIIQ4s")

# Per-record flag bits.
_F_TAKEN = 1 << 0       # control transfer happened
_F_MEM = 1 << 1         # mem_addr follows
_F_SEQ_PC = 1 << 2      # pc == previous record's next_pc (elided)
_F_SEQ_NEXT = 1 << 3    # next_pc == pc + 4 (elided)
_F_INSTR = 1 << 4       # encoded instruction word follows (0 = trapped)


class TraceFormatError(ValueError):
    """Raised for malformed, truncated or wrong-version trace data."""


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode one LEB128 varint from ``data`` at ``pos``."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise TraceFormatError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _append_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint, appended to a record buffer."""
    if value < 0:
        raise TraceFormatError(f"cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class TraceWriter:
    """Incrementally encode records to a binary stream.

    ``append`` each retired instruction in program order, then call
    :meth:`finish` exactly once to emit the marker index and footer.
    The writer tracks marker firings itself, so the caller needs no
    side channel to build the index.

    Records are encoded into one buffer that is CRC'd and written to
    the stream every :attr:`CHUNK_BYTES`, so memory stays flat however
    long the trace; the bytes are those of a record-at-a-time writer.
    """

    #: Flush threshold of the record buffer.
    CHUNK_BYTES = 1 << 16

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self._prev_next_pc: Optional[int] = None
        #: instruction word -> dictionary index, in first-appearance
        #: order.  A word's first record carries the full word; every
        #: later one carries only the (small) index.
        self._word_ids: Dict[int, int] = {}
        self.n_records = 0
        #: marker id -> list of step indices; entry ``k-1`` is the step
        #: at which the marker's cumulative count reached ``k``.
        self.markers: Dict[int, List[int]] = {}
        self._finished = False
        header = _HEADER.pack(TRACE_MAGIC, TRACE_VERSION)
        self._crc_header = zlib.crc32(header)
        self._crc_body = 0
        self._body_bytes = _HEADER.size
        self._buffer = bytearray()
        stream.write(header)

    def append(self, record: TraceRecord) -> Optional[int]:
        """Encode one record; returns its word id (``None`` when the
        record was trapped and carries no word)."""
        if self._finished:
            raise TraceFormatError("writer already finished")
        out = self._buffer
        pc = record.pc
        next_pc = record.next_pc
        mem_addr = record.mem_addr
        instr = record.instr
        flags = _F_TAKEN if record.taken else 0
        if mem_addr is not None:
            flags |= _F_MEM
        if pc == self._prev_next_pc:
            flags |= _F_SEQ_PC
        if next_pc == pc + 4:
            flags |= _F_SEQ_NEXT
        if instr is not None:
            flags |= _F_INSTR
        out.append(flags)
        if not flags & _F_SEQ_PC:
            _append_uvarint(out, pc)
        word_id = None
        if instr is not None:
            word = encode(instr)
            word_id = self._word_ids.get(word)
            if word_id is None:
                word_id = len(self._word_ids)
                self._word_ids[word] = word_id
                _append_uvarint(out, word_id)
                _append_uvarint(out, word)
            else:
                _append_uvarint(out, word_id)
            if instr.op is Op.MARKER:
                self.markers.setdefault(instr.imm, []).append(self.n_records)
        if not flags & _F_SEQ_NEXT:
            _append_uvarint(out, next_pc)
        if mem_addr is not None:
            _append_uvarint(out, mem_addr)
        self._prev_next_pc = next_pc
        self.n_records += 1
        if len(out) >= self.CHUNK_BYTES:
            self._flush()
        return word_id

    def _flush(self) -> None:
        out = self._buffer
        self._crc_body = zlib.crc32(out, self._crc_body)
        self._body_bytes += len(out)
        self._stream.write(out)
        out.clear()

    def finish(self) -> None:
        """Write the marker-index footer; the stream stays open."""
        if self._finished:
            return
        self._finished = True
        self._flush()
        out = self._stream
        index_offset = self._body_bytes
        index = {
            "n_records": self.n_records,
            "markers": {str(mid): steps for mid, steps in self.markers.items()},
        }
        index_blob = json.dumps(index, sort_keys=True,
                                separators=(",", ":")).encode("utf-8")
        out.write(index_blob)
        out.write(_FOOTER.pack(self._crc_header, self._crc_body,
                               zlib.crc32(index_blob), index_offset,
                               TRACE_MAGIC))


def write_trace(path: Union[str, pathlib.Path],
                records: Iterable[TraceRecord]) -> int:
    """Encode ``records`` into the file at ``path``; returns the count."""
    with open(path, "wb") as stream:
        writer = TraceWriter(stream)
        for record in records:
            writer.append(record)
        writer.finish()
    return writer.n_records


class TraceColumns:
    """Struct-of-arrays view of a decoded trace.

    The per-record object stream of :meth:`RecordedTrace.records` is
    the right shape for the lock-step golden path, but the batched
    fast-path timing kernel (:mod:`repro.timing.fastpath`) wants flat,
    index-addressable columns it can walk with plain integer loads.
    One :class:`TraceColumns` holds the whole trace decoded once:

    ``pc`` / ``next_pc``
        preallocated ``array('q')`` byte addresses;
    ``word_id``
        index into :attr:`instrs` (the word dictionary, one decoded
        :class:`~repro.isa.instructions.Instruction` per distinct
        word), or ``-1`` for a trap-emulated record;
    ``taken``
        ``bytearray`` of 0/1 transfer outcomes;
    ``mem_addr``
        ``array('q')`` effective addresses, ``-1`` where the record
        carries none.
    """

    __slots__ = ("n_records", "pc", "word_id", "next_pc", "taken",
                 "mem_addr", "instrs", "has_trapped", "vec_cache")

    #: The per-record buffers.
    ARRAYS = ("pc", "word_id", "next_pc", "taken", "mem_addr")

    def __init__(self, n_records: int) -> None:
        self.n_records = n_records
        zeros = bytes(8 * n_records)
        self.pc = array("q", zeros)
        self.word_id = array("q", zeros)
        self.next_pc = array("q", zeros)
        self.taken = bytearray(n_records)
        self.mem_addr = array("q", zeros)
        self.instrs: List[Instruction] = []
        self.has_trapped = False
        #: Scratch dict used by the vectorized replay kernel
        #: (:mod:`repro.timing.fastpath_vec`) to memoise per-trace
        #: precomputations (word tables, event passes) across the many
        #: replays that share this decode.  ``None`` until first use.
        self.vec_cache = None

    @classmethod
    def from_arrays(cls, pc, word_id, next_pc, taken, mem_addr,
                    instrs: List[Instruction],
                    has_trapped: bool) -> "TraceColumns":
        """Wrap already-filled column buffers (no copy)."""
        cols = cls.__new__(cls)
        cols.n_records = len(pc)
        cols.pc, cols.word_id, cols.next_pc = pc, word_id, next_pc
        cols.taken, cols.mem_addr = taken, mem_addr
        cols.instrs = instrs
        cols.has_trapped = has_trapped
        cols.vec_cache = None
        return cols

    def __len__(self) -> int:
        return self.n_records


class RecordedTrace:
    """A decoded handle on one serialised execution trace.

    Holds the raw encoded bytes plus the parsed marker index; records
    themselves are decoded lazily by :meth:`records`, so replaying a
    multi-million-instruction trace never materialises it as objects.
    """

    def __init__(self, data: bytes,
                 source: Optional[pathlib.Path] = None,
                 verify: bool = True) -> None:
        if len(data) < _HEADER.size + _FOOTER.size:
            raise TraceFormatError("trace too short for header and footer")
        magic, version = _HEADER.unpack_from(data, 0)
        if magic != TRACE_MAGIC:
            raise TraceFormatError(f"bad trace magic {magic!r}")
        if version != TRACE_VERSION:
            raise TraceFormatError(
                f"trace version {version} unsupported "
                f"(encoder is v{TRACE_VERSION})"
            )
        (crc_header, crc_body, crc_index, index_offset,
         end_magic) = _FOOTER.unpack_from(data, len(data) - _FOOTER.size)
        if end_magic != TRACE_MAGIC:
            raise TraceFormatError("bad trace footer magic")
        if not _HEADER.size <= index_offset <= len(data) - _FOOTER.size:
            raise TraceFormatError("index offset out of range")
        if verify:
            index_end = len(data) - _FOOTER.size
            for section, blob, expected in (
                ("header", data[:_HEADER.size], crc_header),
                ("payload", data[_HEADER.size:index_offset], crc_body),
                ("marker index", data[index_offset:index_end], crc_index),
            ):
                actual = zlib.crc32(blob)
                if actual != expected:
                    raise TraceFormatError(
                        f"{section} checksum mismatch: stored "
                        f"{expected:#010x}, computed {actual:#010x}"
                    )
        try:
            index = json.loads(
                data[index_offset:len(data) - _FOOTER.size].decode("utf-8"))
            self.n_records = int(index["n_records"])
            self.markers: Dict[int, List[int]] = {
                int(mid): [int(s) for s in steps]
                for mid, steps in index["markers"].items()
            }
        except (ValueError, KeyError, TypeError) as exc:
            raise TraceFormatError(f"corrupt marker index: {exc}") from None
        self._data = data
        self._body_end = index_offset
        self.source = source
        self._columns: Optional[TraceColumns] = None

    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: Union[str, pathlib.Path],
             verify: bool = True) -> "RecordedTrace":
        path = pathlib.Path(path)
        return cls(path.read_bytes(), source=path, verify=verify)

    @property
    def nbytes(self) -> int:
        """Encoded size, including header, index and footer."""
        return len(self._data)

    def __len__(self) -> int:
        return self.n_records

    def marker_step(self, marker_id: int, count: int) -> int:
        """Step index at which ``marker_id`` fired for the ``count``-th
        time — the record at that index *is* the marker instruction."""
        steps = self.markers.get(marker_id, [])
        if count < 1 or count > len(steps):
            raise TraceFormatError(
                f"marker {marker_id} fired {len(steps)} time(s) in the "
                f"trace; firing {count} was requested"
            )
        return steps[count - 1]

    def records(self) -> Iterator[TraceRecord]:
        """Decode the stream front to back (a fresh pass every call)."""
        data = self._data
        end = self._body_end
        pos = _HEADER.size
        prev_next_pc: Optional[int] = None
        # Mirror of the writer's word dictionary: entry i is the i-th
        # distinct word's decoded instruction, so each distinct word is
        # decoded exactly once.
        instrs: List[Instruction] = []
        emitted = 0
        while emitted < self.n_records:
            if pos >= end:
                raise TraceFormatError(
                    f"trace body ends after {emitted} of "
                    f"{self.n_records} records"
                )
            flags = data[pos]
            pos += 1
            if flags & _F_SEQ_PC:
                if prev_next_pc is None:
                    raise TraceFormatError(
                        "first record cannot have an elided pc")
                pc = prev_next_pc
            else:
                pc, pos = _read_uvarint(data, pos)
            instr: Optional[Instruction] = None
            if flags & _F_INSTR:
                word_id, pos = _read_uvarint(data, pos)
                if word_id == len(instrs):
                    # First appearance: the full word follows.
                    word, pos = _read_uvarint(data, pos)
                    instrs.append(decode(word, pc=pc))
                elif word_id > len(instrs):
                    raise TraceFormatError(
                        f"word id {word_id} out of range at record "
                        f"{emitted} (dictionary holds {len(instrs)})"
                    )
                instr = instrs[word_id]
            if flags & _F_SEQ_NEXT:
                next_pc = pc + 4
            else:
                next_pc, pos = _read_uvarint(data, pos)
            mem_addr: Optional[int] = None
            if flags & _F_MEM:
                mem_addr, pos = _read_uvarint(data, pos)
            prev_next_pc = next_pc
            emitted += 1
            yield TraceRecord(pc, instr, next_pc,
                              taken=bool(flags & _F_TAKEN),
                              mem_addr=mem_addr)
        if pos != end:
            raise TraceFormatError(
                f"{end - pos} trailing byte(s) after the last record")

    def adopt_columns(self, columns: TraceColumns) -> None:
        """Serve ``columns`` — filled by the recorder that wrote these
        bytes (:func:`record_trace`) — from :meth:`columns` instead of
        decoding the bytes again."""
        if columns.n_records != self.n_records:
            raise TraceFormatError(
                f"columns hold {columns.n_records} records, the trace "
                f"{self.n_records}")
        self._columns = columns

    def columns(self, chunk_records: int = 1 << 15) -> TraceColumns:
        """Decode the whole stream into struct-of-arrays columns.

        One pass over the encoded body fills the preallocated buffers
        of a :class:`TraceColumns` without ever materialising a
        :class:`~repro.sim.trace.TraceRecord`; the result is memoised
        on the handle, so replaying one trace under many timing
        configurations decodes it exactly once.  ``chunk_records``
        bounds how many records are decoded between loop-invariant
        rebinds (the inner loop is restarted per chunk so a replay of
        a multi-million-record trace keeps its working set hot).

        Chunk boundaries are *group-aligned*: a record whose PC is
        delta-linked to its predecessor (``_F_SEQ_PC``) is decoded in
        the same chunk as that predecessor, so a chunk restart never
        lands inside a straight-line record group.  Downstream span
        segmentation (:mod:`repro.timing.fastpath_vec`) relies on this:
        the columns produced are byte-identical for *any* positive
        ``chunk_records`` (pinned by ``tests/test_trace_io.py``).
        """
        if self._columns is not None:
            return self._columns
        if chunk_records < 1:
            raise ValueError("chunk_records must be positive")
        n_records = self.n_records
        cols = TraceColumns(n_records)
        pcs, word_ids = cols.pc, cols.word_id
        next_pcs, takens, mem_addrs = cols.next_pc, cols.taken, cols.mem_addr
        instrs = cols.instrs
        data = self._data
        end = self._body_end
        pos = _HEADER.size
        prev_next_pc = -1
        n_words = 0
        emitted = 0
        try:
            while emitted < n_records:
                stop = min(emitted + chunk_records, n_records)
                while emitted < stop or (
                    # Group alignment: keep decoding past the nominal
                    # stop while the next record elides its PC — it
                    # belongs to the current straight-line group.
                    emitted < n_records and pos < end
                    and data[pos] & _F_SEQ_PC
                ):
                    if pos >= end:
                        raise TraceFormatError(
                            f"trace body ends after {emitted} of "
                            f"{n_records} records"
                        )
                    flags = data[pos]
                    pos += 1
                    if flags & _F_SEQ_PC:
                        if prev_next_pc < 0:
                            raise TraceFormatError(
                                "first record cannot have an elided pc")
                        pc = prev_next_pc
                    else:
                        byte = data[pos]
                        pos += 1
                        if byte < 0x80:
                            pc = byte
                        else:
                            pc = byte & 0x7F
                            shift = 7
                            while True:
                                byte = data[pos]
                                pos += 1
                                pc |= (byte & 0x7F) << shift
                                if byte < 0x80:
                                    break
                                shift += 7
                    if flags & _F_INSTR:
                        byte = data[pos]
                        pos += 1
                        if byte < 0x80:
                            word_id = byte
                        else:
                            word_id = byte & 0x7F
                            shift = 7
                            while True:
                                byte = data[pos]
                                pos += 1
                                word_id |= (byte & 0x7F) << shift
                                if byte < 0x80:
                                    break
                                shift += 7
                        if word_id == n_words:
                            word, pos = _read_uvarint(data, pos)
                            instrs.append(decode(word, pc=pc))
                            n_words += 1
                        elif word_id > n_words:
                            raise TraceFormatError(
                                f"word id {word_id} out of range at record "
                                f"{emitted} (dictionary holds {n_words})"
                            )
                        word_ids[emitted] = word_id
                    else:
                        word_ids[emitted] = -1
                        cols.has_trapped = True
                    if flags & _F_SEQ_NEXT:
                        next_pc = pc + 4
                    else:
                        byte = data[pos]
                        pos += 1
                        if byte < 0x80:
                            next_pc = byte
                        else:
                            next_pc = byte & 0x7F
                            shift = 7
                            while True:
                                byte = data[pos]
                                pos += 1
                                next_pc |= (byte & 0x7F) << shift
                                if byte < 0x80:
                                    break
                                shift += 7
                    if flags & _F_MEM:
                        mem, pos = _read_uvarint(data, pos)
                        mem_addrs[emitted] = mem
                    else:
                        mem_addrs[emitted] = -1
                    pcs[emitted] = pc
                    next_pcs[emitted] = next_pc
                    takens[emitted] = flags & _F_TAKEN
                    prev_next_pc = next_pc
                    emitted += 1
        except IndexError:
            raise TraceFormatError("truncated varint") from None
        if pos != end:
            raise TraceFormatError(
                f"{end - pos} trailing byte(s) after the last record")
        self._columns = cols
        return cols


# ----------------------------------------------------------------------
# The fused recorder: execute, encode and fill columns in one pass.

#: Flag bytes of the record shapes :class:`_FusedRecorder` precomputes.
#: Every record after the first has ``pc == previous next_pc``, so all
#: of them carry ``_F_SEQ_PC``; the first record is never memoised (no
#: word is in the dictionary yet).
_FLAGS_LINE = _F_SEQ_PC | _F_SEQ_NEXT | _F_INSTR
_FLAGS_MEM = _FLAGS_LINE | _F_MEM
_FLAGS_TAKEN = _F_TAKEN | _F_SEQ_PC | _F_INSTR

# Step shapes of a memoised PC.
_K_LINE, _K_MEM, _K_COND, _K_JUMP = range(4)

#: Machine semantics kind -> step shape (``halt`` has none).
_SHAPES = {_LINE: _K_LINE, _COND: _K_COND, _JUMP: _K_JUMP}

#: Ops whose semantics return the effective address of an access.
_MEM_OPS = frozenset((Op.LW, Op.LB, Op.SW, Op.SB))

#: Steps run between buffer flushes, step-limit checks and column
#: growth.
_RECORD_BATCH = 1 << 12


def _uvarint(value: int) -> bytes:
    out = bytearray()
    _append_uvarint(out, value)
    return bytes(out)


class _FusedRecorder:
    """One recording of a :class:`~repro.sim.machine.Machine` into a
    :class:`TraceWriter` and a :class:`TraceColumns` (see
    :func:`record_trace`)."""

    def __init__(self, machine, writer: TraceWriter) -> None:
        self.machine = machine
        self.writer = writer
        #: canonical word -> (shape, word id, untaken record bytes,
        #: sequential taken record bytes, taken record prefix): the
        #: PC-independent part of a memo, built once per word.  A load
        #: or store's untaken bytes are its prefix (the address
        #: follows), a jump's are the prefix of a register target
        #: (``jr``); a taken record whose target is not ``pc + 4`` is
        #: its prefix followed by the target.
        self.words: Dict[int, tuple] = {}
        #: PC -> (entry, shape, semantics, word id, untaken record
        #: bytes, taken record bytes, branch target).  Valid while the
        #: machine's decode cache holds the same ``entry``.
        self.memo: Dict[int, tuple] = {}
        self.instrs: List[Instruction] = []
        self.has_trapped = False
        self.pc = array("q")
        self.word_id = array("q")
        self.mem_addr = array("q")
        self.taken = bytearray()

    def grow(self) -> None:
        """Extend every column by one batch of unset records."""
        self.pc.extend(array("q", bytes(8 * _RECORD_BATCH)))
        self.word_id.extend(array("q", bytes(8 * _RECORD_BATCH)))
        self.mem_addr.extend(array("q", [-1]) * _RECORD_BATCH)
        self.taken += bytes(_RECORD_BATCH)

    def prepare(self, pc: int) -> Optional[tuple]:
        """The memo of ``pc``'s predecoded entry, predecoding it if
        needed; ``None`` when the step must run as the reference pair:
        a trap, ``marker`` or ``halt``, or a word the trace has not
        carried yet (its first record holds the whole word)."""
        machine = self.machine
        entry = machine._decode_cache.get(pc)
        if entry is None:
            try:
                entry = machine._predecode(pc)
            except InvalidOpcodeError:
                return None
        word = entry[9]
        shaped = self.words.get(word) or self.memoise(word, entry)
        if shaped is None:
            return None
        shape, wid, line, seq_taken, taken_prefix = shaped
        target = entry[7]
        if shape == _K_LINE or shape == _K_MEM:
            taken = None
        elif target == pc + 4:
            taken = seq_taken
        else:
            taken = taken_prefix + _uvarint(target)
        step = self.memo[pc] = (entry, shape, entry[1], wid, line, taken,
                                target)
        return step

    def memoise(self, word: int, entry: tuple) -> Optional[tuple]:
        """Build and keep the PC-independent memo part of ``word``;
        ``None`` for a word the trace has not carried yet, ``halt`` and
        ``marker``, which take the reference step."""
        wid = self.writer._word_ids.get(word)
        shape = _SHAPES.get(entry[0])
        op = entry[8].op
        if wid is None or shape is None or op is Op.MARKER:
            return None
        wid_bytes = _uvarint(wid)
        line = bytes((_FLAGS_LINE,)) + wid_bytes
        taken_prefix = bytes((_FLAGS_TAKEN,)) + wid_bytes
        if shape == _K_LINE and op in _MEM_OPS:
            shape, line = _K_MEM, bytes((_FLAGS_MEM,)) + wid_bytes
        elif shape == _K_JUMP:
            line = taken_prefix
        shaped = self.words[word] = (
            shape, wid, line, bytes((_FLAGS_TAKEN | _F_SEQ_NEXT,)) + wid_bytes,
            taken_prefix)
        return shaped

    def slow_step(self, pc: int, n: int) -> None:
        """Record ``n`` at ``pc`` through ``Machine.step`` and
        ``TraceWriter.append``, the reference pair."""
        machine, writer = self.machine, self.writer
        writer.n_records = n
        writer._prev_next_pc = pc if n else None
        n_words = len(writer._word_ids)
        record = machine.step()
        wid = writer.append(record)
        self.pc[n] = pc
        if record.taken:
            self.taken[n] = 1
        if record.mem_addr is not None:
            self.mem_addr[n] = record.mem_addr
        if wid is None:
            self.word_id[n] = -1
            self.has_trapped = True
            return
        self.word_id[n] = wid
        if len(writer._word_ids) > n_words:
            self.instrs.append(record.instr)

    def run(self, end: Tuple[int, int], max_steps: int) -> int:
        """Execute to the ``end`` marker point; returns the number of
        records."""
        machine = self.machine
        marker_id, target = end
        memo_get = self.memo.get
        cache_get = machine._decode_cache.get
        out = self.writer._buffer
        chunk_bytes = self.writer.CHUNK_BYTES
        pcs, wids, mems, takens = (self.pc, self.word_id, self.mem_addr,
                                   self.taken)
        base_instret = machine.instret
        regs = machine.regs
        pc = machine.pc
        n = 0
        done = (machine.halted
                or machine.marker_counts.get(marker_id, 0) >= target)
        try:
            while not done:
                if len(pcs) < n + _RECORD_BATCH:
                    self.grow()
                stop = min(n + _RECORD_BATCH, max_steps)
                while n < stop:
                    step = memo_get(pc)
                    if step is None or cache_get(pc) is not step[0]:
                        step = self.prepare(pc)
                    if step is None:
                        machine.pc = pc
                        machine.instret = base_instret + n
                        self.slow_step(pc, n)
                        n += 1
                        pc = machine.pc
                        regs = machine.regs
                        if (machine.halted or machine.marker_counts.get(
                                marker_id, 0) >= target):
                            done = True
                            break
                        continue
                    entry, shape, fn, wid, line, taken, branch = step
                    if shape == _K_LINE:
                        fn(machine, regs, entry)
                        out += line
                        next_pc = pc + 4
                    elif shape == _K_MEM:
                        addr = fn(machine, regs, entry)
                        out += line
                        _append_uvarint(out, addr)
                        mems[n] = addr
                        next_pc = pc + 4
                    else:
                        # ``jal`` links from (and a failing ``brr``
                        # reports) the machine's PC.
                        machine.pc = pc
                        if shape == _K_COND:
                            if fn(machine, regs, entry):
                                out += taken
                                takens[n] = 1
                                next_pc = branch
                            else:
                                out += line
                                next_pc = pc + 4
                        else:
                            next_pc = fn(machine, regs, entry)
                            takens[n] = 1
                            if next_pc == branch:
                                out += taken
                            else:
                                # ``jr`` (whose ``branch`` is pc + 4)
                                # to anywhere else.
                                out += line
                                _append_uvarint(out, next_pc)
                    pcs[n] = pc
                    wids[n] = wid
                    pc = next_pc
                    n += 1
                if len(out) >= chunk_bytes:
                    self.writer._flush()
                if not done and n >= max_steps:
                    raise RuntimeError(
                        f"marker {marker_id} not reached within "
                        f"{max_steps} steps")
        finally:
            machine.pc = pc
            machine.instret = base_instret + n
        if machine.marker_counts.get(marker_id, 0) < target:
            raise RuntimeError(
                f"program halted before marker {marker_id} fired "
                f"{target} time(s)")
        return n

    def columns(self, n: int) -> TraceColumns:
        """The filled columns of the first ``n`` records."""
        for column in (self.pc, self.word_id, self.mem_addr, self.taken):
            del column[n:]
        next_pc = self.pc[1:]
        if n:
            next_pc.append(self.machine.pc)
        return TraceColumns.from_arrays(
            self.pc, self.word_id, next_pc, self.taken, self.mem_addr,
            self.instrs, self.has_trapped)


def record_trace(machine, stream: BinaryIO, end: Tuple[int, int],
                 max_steps: int) -> TraceColumns:
    """Run ``machine`` until marker ``end[0]`` has fired ``end[1]``
    times, encoding every retired instruction to ``stream`` and filling
    its replay columns in the same pass.

    The bytes are exactly those ``TraceWriter.append(machine.step())``
    writes, and the returned columns equal :meth:`RecordedTrace.columns`
    of those bytes, but the hot path makes no
    :class:`~repro.sim.trace.TraceRecord` and no ``step()``/``append()``
    call.  It dispatches on the machine's own predecoded entries (its
    decode cache, filled and bounded by ``Machine._predecode``).  The
    record bytes of each distinct word are built once per call; a PC
    adds only the taken bytes of an explicit branch target, and its
    memo holds for as long as the cache holds that entry.  Traps,
    ``marker``, ``halt`` and the first record of each distinct word
    (which carries the word) run as ``machine.step()`` into
    ``TraceWriter.append``, so marker callbacks and trap handlers only
    ever run there.  The memos live for this call only.  Raises
    ``RuntimeError`` when the end point is not reached within
    ``max_steps`` records or before the machine halts.
    """
    writer = TraceWriter(stream)
    recorder = _FusedRecorder(machine, writer)
    n = recorder.run(end, max_steps)
    writer.n_records = n
    writer.finish()
    return recorder.columns(n)


def read_trace(path: Union[str, pathlib.Path],
               verify: bool = True) -> RecordedTrace:
    """Open and validate a trace file written by :class:`TraceWriter`."""
    return RecordedTrace.open(path, verify=verify)


def trace_from_records(records: Iterable[TraceRecord]) -> RecordedTrace:
    """Encode an in-memory record stream and hand back a trace handle —
    the no-filesystem path used when no trace store is configured."""
    buffer = io.BytesIO()
    writer = TraceWriter(buffer)
    for record in records:
        writer.append(record)
    writer.finish()
    return RecordedTrace(buffer.getvalue())
