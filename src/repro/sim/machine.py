"""The functional (architectural) simulator.

Executes assembled programs at instruction granularity, maintaining
the 16 general registers, the PC and a flat memory.  Branch-on-random
instructions are resolved by a pluggable
:class:`~repro.core.brr.RandomSource` (the LFSR unit, the
deterministic hardware-counter variant, or — in trap mode — a software
handler registered for the invalid opcode, reproducing the paper's
SIGILL emulation).

``marker`` instructions (the Simics magic-instruction analogue from
Section 5.1) increment per-id counters and fire callbacks, which the
experiment harness uses to delimit warm-up and measurement windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..core.brr import RandomSource
from ..isa.instructions import (
    LINK_REG,
    WORD,
    InvalidOpcodeError,
    Op,
    decode,
    encode,
)
from ..isa.program import Program
from .memory import Memory
from .trace import TraceRecord

_MASK = 0xFFFFFFFF


def _signed(value: int) -> int:
    return value - 0x100000000 if value & 0x80000000 else value


class MachineError(Exception):
    """Unrecoverable execution failure (e.g. unhandled trap)."""


class Halted(Exception):
    """Raised when stepping a machine that has already halted."""


#: Signature of an invalid-opcode trap handler: receives the machine,
#: the faulting word and its PC, and returns the next PC.
TrapHandler = Callable[["Machine", int, int], int]

#: Signature of a marker callback.
MarkerCallback = Callable[["Machine", int, int], None]


# ----------------------------------------------------------------------
# Instruction semantics, dispatched by table.
#
# ``Machine._predecode`` turns each fetched word into one plain tuple,
# cached per PC:
#
#     (kind, semantics, rd, ra, rb, imm, freq, target, instr, word)
#
# where ``target`` is the PC-relative branch target precomputed from
# ``imm``, ``instr`` is the decoded :class:`Instruction` the trace
# record carries and ``word`` is its canonical encoding, the word the
# trace writer stores.  Everything but ``target`` depends on the raw
# word alone, so it is decoded once per distinct word, not per PC.
# ``kind`` says what ``semantics(machine, regs, entry)`` returns:
#
# ``_LINE``  straight-line code: the effective address of a memory
#            access, else ``None``; execution falls through;
# ``_COND``  conditional transfer (incl. ``brr``): whether it is taken;
# ``_JUMP``  unconditional transfer: the next PC;
# ``_HALT``  no semantics function; the machine stops.

_LINE, _COND, _JUMP, _HALT = range(4)


def _add(m, r, e): r[e[2]] = (r[e[3]] + r[e[4]]) & _MASK
def _sub(m, r, e): r[e[2]] = (r[e[3]] - r[e[4]]) & _MASK
def _and(m, r, e): r[e[2]] = r[e[3]] & r[e[4]]
def _or(m, r, e): r[e[2]] = r[e[3]] | r[e[4]]
def _xor(m, r, e): r[e[2]] = r[e[3]] ^ r[e[4]]
def _shl(m, r, e): r[e[2]] = (r[e[3]] << (r[e[4]] & 31)) & _MASK
def _shr(m, r, e): r[e[2]] = r[e[3]] >> (r[e[4]] & 31)
def _mul(m, r, e): r[e[2]] = (r[e[3]] * r[e[4]]) & _MASK
def _slt(m, r, e): r[e[2]] = int(_signed(r[e[3]]) < _signed(r[e[4]]))
def _addi(m, r, e): r[e[2]] = (r[e[3]] + e[5]) & _MASK
def _andi(m, r, e): r[e[2]] = r[e[3]] & (e[5] & _MASK)
def _ori(m, r, e): r[e[2]] = r[e[3]] | (e[5] & _MASK)
def _xori(m, r, e): r[e[2]] = r[e[3]] ^ (e[5] & _MASK)
def _shli(m, r, e): r[e[2]] = (r[e[3]] << (e[5] & 31)) & _MASK
def _shri(m, r, e): r[e[2]] = r[e[3]] >> (e[5] & 31)
def _slti(m, r, e): r[e[2]] = int(_signed(r[e[3]]) < e[5])
def _li(m, r, e): r[e[2]] = e[5] & _MASK
def _nop(m, r, e): return None


def _lw(m, r, e):
    addr = (r[e[3]] + e[5]) & _MASK
    r[e[2]] = m.memory.load_word(addr)
    return addr


def _lb(m, r, e):
    addr = (r[e[3]] + e[5]) & _MASK
    r[e[2]] = m.memory.load_byte(addr)
    return addr


def _sw(m, r, e):
    addr = (r[e[3]] + e[5]) & _MASK
    m.memory.store_word(addr, r[e[2]])
    return addr


def _sb(m, r, e):
    addr = (r[e[3]] + e[5]) & _MASK
    m.memory.store_byte(addr, r[e[2]])
    return addr


def _marker(m, r, e):
    marker_id = e[5]
    count = m.marker_counts.get(marker_id, 0) + 1
    m.marker_counts[marker_id] = count
    for callback in m.marker_callbacks:
        callback(m, marker_id, count)


def _beq(m, r, e): return r[e[3]] == r[e[4]]
def _bne(m, r, e): return r[e[3]] != r[e[4]]
def _blt(m, r, e): return _signed(r[e[3]]) < _signed(r[e[4]])
def _bge(m, r, e): return _signed(r[e[3]]) >= _signed(r[e[4]])


def _brr(m, r, e):
    if m.brr_unit is None:
        raise MachineError(
            f"brr at pc={m.pc:#x} but no branch-on-random unit configured"
        )
    return m.brr_unit.resolve(e[6])


def _jmp(m, r, e): return e[7]
def _jr(m, r, e): return r[e[3]]


def _jal(m, r, e):
    r[LINK_REG] = (m.pc + WORD) & _MASK
    return e[7]


#: Op -> (kind, semantics function); every architected opcode.
_SEMANTICS = {
    Op.ADD: (_LINE, _add), Op.SUB: (_LINE, _sub), Op.AND: (_LINE, _and),
    Op.OR: (_LINE, _or), Op.XOR: (_LINE, _xor), Op.SHL: (_LINE, _shl),
    Op.SHR: (_LINE, _shr), Op.MUL: (_LINE, _mul), Op.SLT: (_LINE, _slt),
    Op.ADDI: (_LINE, _addi), Op.ANDI: (_LINE, _andi),
    Op.ORI: (_LINE, _ori), Op.XORI: (_LINE, _xori),
    Op.SHLI: (_LINE, _shli), Op.SHRI: (_LINE, _shri),
    Op.SLTI: (_LINE, _slti), Op.LI: (_LINE, _li),
    Op.LW: (_LINE, _lw), Op.LB: (_LINE, _lb), Op.SW: (_LINE, _sw),
    Op.SB: (_LINE, _sb), Op.MARKER: (_LINE, _marker), Op.NOP: (_LINE, _nop),
    Op.BEQ: (_COND, _beq), Op.BNE: (_COND, _bne), Op.BLT: (_COND, _blt),
    Op.BGE: (_COND, _bge), Op.BRR: (_COND, _brr),
    Op.JMP: (_JUMP, _jmp), Op.BRRA: (_JUMP, _jmp), Op.JAL: (_JUMP, _jal),
    Op.JR: (_JUMP, _jr),
    Op.HALT: (_HALT, None),
}


@dataclass
class MachineCheckpoint:
    """A resumable snapshot of one machine's architectural state.

    Covers everything the ISA architects — registers, PC, memory
    image, halt flag, retired-instruction and marker counters — plus,
    when the attached branch-on-random unit supports the Section 3.4
    scan-chain context interface (``save_context``/``restore_context``),
    the LFSR contents, so a resumed machine takes exactly the branches
    the original would have.  Callbacks and trap handlers are *not*
    state; they stay with whatever machine the checkpoint is restored
    into.
    """

    regs: List[int] = field(default_factory=list)
    pc: int = 0
    halted: bool = False
    instret: int = 0
    marker_counts: Dict[int, int] = field(default_factory=dict)
    memory_bytes: bytes = b""
    brr_context: Optional[int] = None


class Machine:
    """Architectural state plus an interpreter loop."""

    #: Default capacity of the decode cache and of the word table.
    #: Above any program in the repo (the largest Figure-12 image is
    #: 19,854 words), so eviction never fires in practice, but long
    #: runs over patched or generated code can no longer grow either
    #: table without bound.
    DECODE_CACHE_LIMIT = 1 << 16

    def __init__(
        self,
        program: Program,
        memory: Optional[Memory] = None,
        memory_size: int = 1 << 20,
        brr_unit: Optional[RandomSource] = None,
        entry: Optional[str] = None,
        decode_cache_limit: Optional[int] = None,
    ) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory(memory_size)
        self.memory.load_program(program)
        self.regs: List[int] = [0] * 16
        self.pc = program.address_of(entry) if entry else program.base
        self.halted = False
        self.brr_unit = brr_unit
        #: Retired instruction count (trapped brr counts as one).
        self.instret = 0
        self.marker_counts: Dict[int, int] = {}
        self.marker_callbacks: List[MarkerCallback] = []
        self.trap_handlers: Dict[int, TrapHandler] = {}
        #: PC -> predecoded dispatch entry (see ``_SEMANTICS``).
        self._decode_cache: Dict[int, tuple] = {}
        #: raw word -> (the entry's fields before ``target``, those
        #: after it, ``target - pc``): all of an entry but its PC.
        self._word_table: Dict[int, tuple] = {}
        self._decode_cache_limit = max(
            1, self.DECODE_CACHE_LIMIT if decode_cache_limit is None
            else decode_cache_limit)

    # ------------------------------------------------------------------

    def register_trap_handler(self, opcode: int, handler: TrapHandler) -> None:
        """Install a handler for an un-architected opcode value."""
        if not 0 <= opcode < 64:
            raise ValueError(f"opcode value out of range: {opcode}")
        self.trap_handlers[opcode] = handler

    def on_marker(self, callback: MarkerCallback) -> None:
        self.marker_callbacks.append(callback)

    def _predecode(self, pc: int) -> tuple:
        """Decode the word at ``pc`` into its dispatch entry and cache it.

        Raises :class:`InvalidOpcodeError` for an un-architected word,
        which enters neither table: the trap handler runs on every
        visit.  A patched word is a different key of the word table, so
        :meth:`invalidate_decode` is all a code patch needs.
        """
        word = self.memory.load_word(pc)
        words = self._word_table
        shared = words.get(word)
        if shared is None:
            instr = decode(word, pc=pc)
            kind, semantics = _SEMANTICS[instr.op]
            shared = ((kind, semantics, instr.rd, instr.ra, instr.rb,
                       instr.imm, instr.freq),
                      (instr, encode(instr)), WORD + instr.imm * WORD)
            self._bounded_put(words, word, shared)
        head, tail, offset = shared
        entry = head + (pc + offset,) + tail
        self._bounded_put(self._decode_cache, pc, entry)
        return entry

    def _bounded_put(self, table: Dict[int, tuple], key: int,
                     value: tuple) -> None:
        if len(table) >= self._decode_cache_limit:
            # FIFO eviction (dicts preserve insertion order): O(1) and
            # good enough for code, whose working set is tiny next to
            # the limit.
            table.pop(next(iter(table)))
        table[key] = value

    def invalidate_decode(self, addr: int) -> None:
        """Drop a cached decode after code has been patched in memory."""
        self._decode_cache.pop(addr, None)

    def patch_brr_frequency(self, addr: int, field: int) -> None:
        """Rewrite the freq field of an in-memory ``brr`` instruction.

        This is the code-patching step of convergent profiling
        (Section 7): "it is possible to efficiently implement
        convergent profiling, by modifying the sampling frequency as
        information is collected" — the runtime patches the 4-bit freq
        field of the site's brr instruction in place.
        """
        if not 0 <= field < 16:
            raise ValueError(f"freq field out of range: {field}")
        word = self.memory.load_word(addr)
        instr = decode(word, pc=addr)
        if instr.op is not Op.BRR:
            raise MachineError(
                f"instruction at {addr:#x} is {instr.op.name}, not BRR"
            )
        self.memory.store_word(addr, (word & ~(0xF << 22)) | (field << 22))
        self.invalidate_decode(addr)

    # ------------------------------------------------------------------

    def step(self) -> TraceRecord:
        """Execute one instruction; return its trace record."""
        if self.halted:
            raise Halted("machine has halted")
        pc = self.pc
        entry = self._decode_cache.get(pc)
        if entry is None:
            try:
                entry = self._predecode(pc)
            except InvalidOpcodeError as exc:
                return self._trap(pc, exc)
        kind = entry[0]
        mem_addr = None
        if kind == _LINE:
            mem_addr = entry[1](self, self.regs, entry)
            next_pc = pc + WORD
            taken = False
        elif kind == _COND:
            taken = entry[1](self, self.regs, entry)
            next_pc = entry[7] if taken else pc + WORD
        elif kind == _JUMP:
            next_pc = entry[1](self, self.regs, entry)
            taken = True
        else:  # halt
            self.halted = True
            next_pc = pc
            taken = False
        self.pc = next_pc
        self.instret += 1
        return TraceRecord(pc, entry[8], next_pc, taken, mem_addr)

    def _trap(self, pc: int, exc: InvalidOpcodeError) -> TraceRecord:
        """Retire an un-architected word through its trap handler."""
        handler = self.trap_handlers.get((exc.word >> 26) & 0x3F)
        if handler is None:
            raise MachineError(
                f"unhandled invalid opcode at pc={pc:#x}"
            ) from exc
        next_pc = handler(self, exc.word, pc)
        self.pc = next_pc
        self.instret += 1
        return TraceRecord(pc, None, next_pc, taken=next_pc != pc + 2 * WORD)

    # ------------------------------------------------------------------

    def run(self, max_steps: int = 10_000_000) -> int:
        """Run until halt (or the step limit); return steps executed."""
        steps = 0
        while not self.halted and steps < max_steps:
            self.step()
            steps += 1
        if not self.halted and steps >= max_steps:
            raise MachineError(f"did not halt within {max_steps} steps")
        return steps

    def run_trace(self, max_steps: int = 10_000_000) -> Iterator[TraceRecord]:
        """Yield trace records until halt (or the step limit)."""
        steps = 0
        while not self.halted and steps < max_steps:
            yield self.step()
            steps += 1

    def run_until_marker(
        self, marker_id: int, count: int = 1, max_steps: int = 10_000_000
    ) -> int:
        """Run until marker ``marker_id`` has fired ``count`` times in
        total; return steps executed.  Used to fast-forward to the
        measurement window (Section 5.1)."""
        steps = 0
        while not self.halted and steps < max_steps:
            if self.marker_counts.get(marker_id, 0) >= count:
                return steps
            self.step()
            steps += 1
        if self.marker_counts.get(marker_id, 0) >= count:
            return steps
        raise MachineError(
            f"marker {marker_id} did not reach count {count} within "
            f"{max_steps} steps"
        )

    # ------------------------------------------------------------------

    def checkpoint(self) -> MachineCheckpoint:
        """Snapshot the architectural state for later :meth:`restore`.

        The warm-up amortisation primitive of the record/replay
        subsystem (``docs/trace_format.md``): run the expensive
        fast-forward prefix once, checkpoint, and start every
        subsequent functional recording from the snapshot instead of
        from program entry.
        """
        save = getattr(self.brr_unit, "save_context", None)
        return MachineCheckpoint(
            regs=list(self.regs),
            pc=self.pc,
            halted=self.halted,
            instret=self.instret,
            marker_counts=dict(self.marker_counts),
            memory_bytes=self.memory.read_bytes(0, self.memory.size),
            brr_context=save() if callable(save) else None,
        )

    def restore(self, snapshot: MachineCheckpoint) -> None:
        """Reset this machine to a previously captured checkpoint.

        The memory images must be the same size (checkpoints are not a
        relocation mechanism).  The decode cache is dropped because the
        snapshot may contain differently patched code.
        """
        if len(snapshot.memory_bytes) != self.memory.size:
            raise MachineError(
                f"checkpoint memory is {len(snapshot.memory_bytes):#x} "
                f"bytes, machine has {self.memory.size:#x}"
            )
        self.regs = list(snapshot.regs)
        self.pc = snapshot.pc
        self.halted = snapshot.halted
        self.instret = snapshot.instret
        self.marker_counts = dict(snapshot.marker_counts)
        self.memory.write_bytes(0, snapshot.memory_bytes)
        self._decode_cache.clear()
        if snapshot.brr_context is not None:
            restore_context = getattr(self.brr_unit, "restore_context", None)
            if not callable(restore_context):
                raise MachineError(
                    "checkpoint carries branch-on-random context but this "
                    "machine's unit has no restore_context()"
                )
            restore_context(snapshot.brr_context)
