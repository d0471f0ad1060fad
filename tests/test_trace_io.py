"""Tests for the binary trace encoding and machine checkpoints."""

import io

import pytest

from repro.core.brr import BranchOnRandomUnit
from repro.core.lfsr import Lfsr
from repro.isa.asm import assemble
from repro.sim import (
    Machine,
    MachineError,
    RecordedTrace,
    TraceFormatError,
    TraceRecord,
    TraceWriter,
    read_trace,
    trace_from_records,
    write_trace,
)
from repro.sim.trace_io import _append_uvarint, _read_uvarint

LOOP_WITH_MARKERS = """
    marker 1
    li r1, 20
    li r4, 0x800
loop:
    sw r1, 0(r4)
    lw r2, 0(r4)
    add r3, r3, r2
    marker 3
    addi r1, r1, -1
    bne r1, r0, loop
    marker 2
    halt
"""


def _run_records(source, **kwargs):
    machine = Machine(assemble(source), **kwargs)
    return list(machine.run_trace()), machine


class TestUvarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 16384,
                                       2**32 - 1, 2**35 + 17])
    def test_round_trip(self, value):
        out = bytearray()
        _append_uvarint(out, value)
        decoded, pos = _read_uvarint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    def test_single_byte_below_128(self):
        out = bytearray()
        _append_uvarint(out, 127)
        assert out == b"\x7f"

    def test_negative_rejected(self):
        with pytest.raises(TraceFormatError):
            _append_uvarint(bytearray(), -1)

    def test_truncated_rejected(self):
        with pytest.raises(TraceFormatError):
            _read_uvarint(b"\x80\x80", 0)  # continuation bit, no final byte


class TestRecordEquality:
    """Satellite: TraceRecord compares structurally."""

    def test_round_tripped_records_compare_equal(self):
        records, _ = _run_records(LOOP_WITH_MARKERS)
        trace = trace_from_records(records)
        assert list(trace.records()) == records

    def test_field_difference_detected(self):
        records, _ = _run_records("nop\nhalt")
        a = records[0]
        b = TraceRecord(a.pc, a.instr, a.next_pc, taken=not a.taken)
        assert a != b
        assert a == TraceRecord(a.pc, a.instr, a.next_pc, taken=a.taken)

    def test_hashable_via_tuple_form(self):
        records, _ = _run_records("nop\nnop\nhalt")
        # Both nops decode identically at different PCs: distinct records.
        assert len({records[0], records[1]}) == 2
        assert hash(records[0]) == hash(TraceRecord(
            records[0].pc, records[0].instr, records[0].next_pc))


class TestRoundTrip:
    def test_memory_round_trip(self):
        records, _ = _run_records(LOOP_WITH_MARKERS)
        trace = trace_from_records(records)
        assert len(trace) == len(records)
        assert list(trace.records()) == records

    def test_file_round_trip(self, tmp_path):
        records, _ = _run_records(LOOP_WITH_MARKERS)
        path = tmp_path / "loop.trace"
        assert write_trace(path, records) == len(records)
        trace = read_trace(path)
        assert trace.source == path
        assert trace.nbytes == path.stat().st_size
        assert list(trace.records()) == records

    def test_trap_record_round_trips(self):
        """Trap-emulated instructions carry no decoding (instr=None)."""
        record = TraceRecord(0x40, None, 0x80, taken=True)
        trace = trace_from_records([record])
        (back,) = trace.records()
        assert back == record
        assert back.instr is None

    def test_brr_stream_round_trips(self):
        source = """
            li r1, 200
        loop:
            brr 1/4, hit
        back:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        hit:
            addi r2, r2, 1
            jmp back
        """
        records, _ = _run_records(
            source, brr_unit=BranchOnRandomUnit(Lfsr(20, seed=0xBEEF)))
        trace = trace_from_records(records)
        assert list(trace.records()) == records

    def test_compression_straight_line(self):
        # Straight-line code: flags byte + instruction word varint.
        records, _ = _run_records("\n".join(["nop"] * 200 + ["halt"]))
        trace = trace_from_records(records)
        body = trace.nbytes - 100  # generous header/index/footer allowance
        assert body / len(records) < 3.0

    def test_repeated_decoding_is_stable(self):
        records, _ = _run_records(LOOP_WITH_MARKERS)
        trace = trace_from_records(records)
        assert list(trace.records()) == list(trace.records())


class TestMarkerIndex:
    def test_marker_steps_match_stream(self):
        records, _ = _run_records(LOOP_WITH_MARKERS)
        trace = trace_from_records(records)
        from repro.isa.instructions import Op

        fired = [i for i, r in enumerate(records)
                 if r.instr is not None and r.instr.op is Op.MARKER
                 and r.instr.imm == 3]
        assert [trace.marker_step(3, k + 1) for k in range(len(fired))] \
            == fired
        assert trace.marker_step(1, 1) == 0

    def test_unfired_marker_rejected(self):
        records, _ = _run_records(LOOP_WITH_MARKERS)
        trace = trace_from_records(records)
        with pytest.raises(TraceFormatError):
            trace.marker_step(9, 1)
        with pytest.raises(TraceFormatError):
            trace.marker_step(2, 2)  # marker 2 fires exactly once
        with pytest.raises(TraceFormatError):
            trace.marker_step(2, 0)  # counts are 1-based


class TestFormatErrors:
    def _encoded(self):
        records, _ = _run_records(LOOP_WITH_MARKERS)
        trace = trace_from_records(records)
        return trace._data

    def test_bad_magic(self):
        data = self._encoded()
        with pytest.raises(TraceFormatError, match="magic"):
            RecordedTrace(b"XXXX" + data[4:])

    def test_wrong_version(self):
        data = bytearray(self._encoded())
        data[4] = 99
        with pytest.raises(TraceFormatError, match="version"):
            RecordedTrace(bytes(data))

    def test_truncated_footer(self):
        data = self._encoded()
        with pytest.raises(TraceFormatError):
            RecordedTrace(data[:-4])

    def test_too_short(self):
        with pytest.raises(TraceFormatError):
            RecordedTrace(b"BRTR")

    def test_truncated_body(self):
        data = self._encoded()
        # Rebuild with the footer claiming more records than encoded.
        trace = RecordedTrace(data)
        records = list(trace.records())
        buffer = io.BytesIO()
        writer = TraceWriter(buffer)
        for record in records[:-5]:
            writer.append(record)
        writer.n_records += 5  # lie about the count
        writer.finish()
        with pytest.raises(TraceFormatError, match="ends after"):
            list(RecordedTrace(buffer.getvalue()).records())

    def test_append_after_finish_rejected(self):
        records, _ = _run_records("nop\nhalt")
        buffer = io.BytesIO()
        writer = TraceWriter(buffer)
        writer.append(records[0])
        writer.finish()
        with pytest.raises(TraceFormatError):
            writer.append(records[1])
        writer.finish()  # idempotent


class TestCheckpoint:
    def test_resume_reproduces_suffix(self):
        program = assemble(LOOP_WITH_MARKERS)
        machine = Machine(program)
        machine.run_until_marker(3, 5)
        snapshot = machine.checkpoint()
        suffix = list(machine.run_trace())

        resumed = Machine(program)
        resumed.restore(snapshot)
        assert list(resumed.run_trace()) == suffix
        assert resumed.regs == machine.regs
        assert resumed.marker_counts == machine.marker_counts

    def test_checkpoint_carries_lfsr_context(self):
        source = """
            li r1, 50
        loop:
            brr 1/2, hit
        back:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        hit:
            addi r2, r2, 1
            jmp back
        """
        program = assemble(source)
        machine = Machine(program,
                          brr_unit=BranchOnRandomUnit(Lfsr(20, seed=0xACE1)))
        for _ in range(40):
            machine.step()
        snapshot = machine.checkpoint()
        assert snapshot.brr_context is not None
        suffix = list(machine.run_trace())

        resumed = Machine(program,
                          brr_unit=BranchOnRandomUnit(Lfsr(20, seed=1)))
        resumed.restore(snapshot)
        assert list(resumed.run_trace()) == suffix

    def test_restore_without_brr_unit_rejected(self):
        program = assemble("nop\nhalt")
        machine = Machine(program,
                          brr_unit=BranchOnRandomUnit(Lfsr(20, seed=3)))
        snapshot = machine.checkpoint()
        plain = Machine(program)
        with pytest.raises(MachineError, match="restore_context"):
            plain.restore(snapshot)

    def test_memory_size_mismatch_rejected(self):
        program = assemble("nop\nhalt")
        snapshot = Machine(program, memory_size=1 << 16).checkpoint()
        with pytest.raises(MachineError, match="bytes"):
            Machine(program, memory_size=1 << 17).restore(snapshot)

    def test_restore_replays_memory_image(self):
        program = assemble("""
            li r1, 0x900
            lw r2, 0(r1)
            halt
        """)
        machine = Machine(program)
        machine.memory.store_word(0x900, 1234)
        snapshot = machine.checkpoint()

        other = Machine(program)
        other.restore(snapshot)
        other.run()
        assert other.regs[2] == 1234


class TestChunkAlignment:
    """``columns(chunk_records=...)`` is group-aligned: any positive
    chunk size must yield byte-identical columns and replay stats (the
    vector kernel's span segmentation depends on it)."""

    CHUNKS = (1, 7, 1 << 15)

    def _encoded(self):
        records, _ = _run_records(LOOP_WITH_MARKERS)
        return trace_from_records(records)._data

    def test_columns_identical_across_chunk_sizes(self):
        encoded = self._encoded()
        # columns() memoises per handle -> fresh handle per chunk size.
        reference = RecordedTrace(encoded).columns()
        for chunk in self.CHUNKS:
            cols = RecordedTrace(encoded).columns(chunk_records=chunk)
            assert cols.n_records == reference.n_records
            assert list(cols.pc) == list(reference.pc)
            assert list(cols.word_id) == list(reference.word_id)
            assert list(cols.next_pc) == list(reference.next_pc)
            assert bytes(cols.taken) == bytes(reference.taken)
            assert list(cols.mem_addr) == list(reference.mem_addr)
            assert cols.instrs == reference.instrs

    @pytest.mark.parametrize("kernel", ["loop", "vector"])
    def test_replay_stats_identical_across_chunk_sizes(self, kernel):
        from repro.timing.fastpath import run_fastpath
        from repro.timing.runner import (
            WindowResult,
            _resolve_window,
            replay_window,
        )

        program = assemble(LOOP_WITH_MARKERS)
        records, _ = _run_records(LOOP_WITH_MARKERS)
        encoded = trace_from_records(records)._data
        reference = None
        for chunk in self.CHUNKS:
            trace = RecordedTrace(encoded)
            trace.columns(chunk_records=chunk)  # decode at this size
            if kernel == "loop":
                window = _resolve_window(trace, (1, 1), (2, 1), None)
                result = WindowResult(
                    stats=run_fastpath(trace, *window, program=program),
                    total_steps=window[2] + 1)
            else:
                result = replay_window(trace, begin=(1, 1), end=(2, 1),
                                       program=program, fast=kernel)
            if reference is None:
                reference = result
            else:
                assert result.stats == reference.stats
                assert result.total_steps == reference.total_steps

    def test_nonpositive_chunk_rejected(self):
        encoded = self._encoded()
        with pytest.raises(ValueError):
            RecordedTrace(encoded).columns(chunk_records=0)
