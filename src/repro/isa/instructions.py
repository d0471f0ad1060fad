"""Instruction set definition for the reproduction's RISC-style ISA.

The evaluation needs an ISA only as a carrier for the phenomena the
paper studies — instruction footprint, counter loads/stores, branch
kinds resolved at different pipeline stages — so the set is small:
ALU register and immediate forms, byte/word loads and stores,
conditional branches, direct and indirect jumps and calls, and the
paper's additions:

``brr``
    branch-on-random, encoded per Figure 5 as *opcode | 4-bit freq |
    target*; taken with probability ``(1/2)**(freq+1)``.
``brra``
    the footnote-4 variant: a 100%-taken branch-on-random used for
    infrequently executed unconditional jumps (e.g. the jump back from
    out-of-line instrumentation) so they do not occupy BTB entries.
``marker``
    the magic marker instruction used to delimit warm-up and
    measurement windows in timing simulation (Section 5.1).

All instructions are 32 bits.  There are 16 general registers r0..r15;
``r15`` doubles as the link register for ``jal``, and ``r14`` is the
conventional stack pointer ``sp``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Number of architectural registers.
NUM_REGS = 16

#: Link register written by ``jal``.
LINK_REG = 15

#: Bytes per instruction word.
WORD = 4


class Format(enum.Enum):
    """Encoding format families."""

    R = "r"          # op rd, ra, rb
    I = "i"          # op rd, ra, imm18
    LI = "li"        # op rd, imm22
    MEM = "mem"      # op rd, imm(ra)
    BRANCH = "br"    # op ra, rb, target
    JUMP = "jump"    # op target26
    JR = "jr"        # op ra
    BRR = "brr"      # op freq4, target22
    MARKER = "mark"  # op imm26
    NONE = "none"    # op


class Op(enum.IntEnum):
    """Opcode values (bits 31:26 of the word)."""

    ADD = 0x01
    SUB = 0x02
    AND = 0x03
    OR = 0x04
    XOR = 0x05
    SHL = 0x06
    SHR = 0x07
    MUL = 0x08
    SLT = 0x09

    ADDI = 0x10
    ANDI = 0x11
    ORI = 0x12
    XORI = 0x13
    SHLI = 0x14
    SHRI = 0x15
    SLTI = 0x16
    LI = 0x17

    LW = 0x18
    LB = 0x19
    SW = 0x1A
    SB = 0x1B

    BEQ = 0x20
    BNE = 0x21
    BLT = 0x22
    BGE = 0x23

    JMP = 0x28
    JAL = 0x29
    JR = 0x2A

    BRR = 0x30
    BRRA = 0x31

    MARKER = 0x38
    NOP = 0x3E
    HALT = 0x3F


#: Format of every opcode.
FORMATS: Dict[Op, Format] = {
    Op.ADD: Format.R, Op.SUB: Format.R, Op.AND: Format.R, Op.OR: Format.R,
    Op.XOR: Format.R, Op.SHL: Format.R, Op.SHR: Format.R, Op.MUL: Format.R,
    Op.SLT: Format.R,
    Op.ADDI: Format.I, Op.ANDI: Format.I, Op.ORI: Format.I,
    Op.XORI: Format.I, Op.SHLI: Format.I, Op.SHRI: Format.I,
    Op.SLTI: Format.I,
    Op.LI: Format.LI,
    Op.LW: Format.MEM, Op.LB: Format.MEM, Op.SW: Format.MEM,
    Op.SB: Format.MEM,
    Op.BEQ: Format.BRANCH, Op.BNE: Format.BRANCH, Op.BLT: Format.BRANCH,
    Op.BGE: Format.BRANCH,
    Op.JMP: Format.JUMP, Op.JAL: Format.JUMP, Op.JR: Format.JR,
    Op.BRR: Format.BRR, Op.BRRA: Format.JUMP,
    Op.MARKER: Format.MARKER,
    Op.NOP: Format.NONE, Op.HALT: Format.NONE,
}

#: Execution latency classes used by the timing model (cycles in the
#: functional unit, excluding memory hierarchy time for loads).
LATENCY: Dict[Op, int] = {Op.MUL: 3}
DEFAULT_LATENCY = 1


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``imm`` holds the sign-extended immediate/offset; for control flow
    it is a *word* offset relative to the next instruction, matching
    the hardware's PC-relative encoding.
    """

    op: Op
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0
    freq: int = 0

    # ----- classification helpers used by the simulators -------------

    @property
    def format(self) -> Format:
        return FORMATS[self.op]

    @property
    def is_branch(self) -> bool:
        """Any control transfer (conditional, jump, call, return, brr)."""
        return self.op in (
            Op.BEQ, Op.BNE, Op.BLT, Op.BGE,
            Op.JMP, Op.JAL, Op.JR, Op.BRR, Op.BRRA,
        )

    @property
    def is_cond_branch(self) -> bool:
        """A conditional branch resolved in the back end."""
        return self.op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE)

    @property
    def is_brr(self) -> bool:
        return self.op in (Op.BRR, Op.BRRA)

    @property
    def is_uncond_direct(self) -> bool:
        return self.op in (Op.JMP, Op.JAL, Op.BRRA)

    @property
    def is_call(self) -> bool:
        return self.op is Op.JAL

    @property
    def is_return(self) -> bool:
        return self.op is Op.JR and self.ra == LINK_REG

    @property
    def is_indirect(self) -> bool:
        return self.op is Op.JR

    @property
    def is_load(self) -> bool:
        return self.op in (Op.LW, Op.LB)

    @property
    def is_store(self) -> bool:
        return self.op in (Op.SW, Op.SB)

    @property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store

    @property
    def latency(self) -> int:
        return LATENCY.get(self.op, DEFAULT_LATENCY)

    def sources(self) -> Tuple[int, ...]:
        """Architectural registers read by this instruction."""
        fmt = self.format
        if fmt is Format.R:
            return (self.ra, self.rb)
        if fmt in (Format.I,):
            return (self.ra,)
        if fmt is Format.MEM:
            # Loads read the base; stores read base and data register.
            if self.is_store:
                return (self.ra, self.rd)
            return (self.ra,)
        if fmt is Format.BRANCH:
            return (self.ra, self.rb)
        if fmt is Format.JR:
            return (self.ra,)
        return ()

    def dest(self) -> Optional[int]:
        """Architectural register written, if any."""
        fmt = self.format
        if fmt in (Format.R, Format.I, Format.LI):
            return self.rd
        if self.is_load:
            return self.rd
        if self.op is Op.JAL:
            return LINK_REG
        return None


class EncodingError(ValueError):
    """Raised when a field does not fit its encoding slot."""


class InvalidOpcodeError(Exception):
    """Raised when decoding an unknown opcode (the trap the paper's
    SIGILL-based emulation relies on)."""

    def __init__(self, word: int, pc: Optional[int] = None) -> None:
        self.word = word
        self.pc = pc
        where = f" at pc={pc:#x}" if pc is not None else ""
        super().__init__(f"invalid opcode in word {word:#010x}{where}")


def _check_reg(value: int, name: str) -> int:
    if not 0 <= value < NUM_REGS:
        raise EncodingError(f"{name} must be a register 0..{NUM_REGS - 1}, got {value}")
    return value


def _check_signed(value: int, bits: int, name: str) -> int:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not lo <= value <= hi:
        raise EncodingError(f"{name} {value} does not fit in {bits} signed bits")
    return value & ((1 << bits) - 1)


def _check_unsigned(value: int, bits: int, name: str) -> int:
    if not 0 <= value < (1 << bits):
        raise EncodingError(f"{name} {value} does not fit in {bits} unsigned bits")
    return value


def _sext(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def _pack_r(rd: int, ra: int, rb: int, imm: int, freq: int) -> int:
    return (_check_reg(rd, "rd") << 22 | _check_reg(ra, "ra") << 18
            | _check_reg(rb, "rb") << 14)


def _pack_i(rd: int, ra: int, rb: int, imm: int, freq: int) -> int:
    return (_check_reg(rd, "rd") << 22 | _check_reg(ra, "ra") << 18
            | _check_signed(imm, 18, "imm"))


def _pack_li(rd: int, ra: int, rb: int, imm: int, freq: int) -> int:
    return _check_reg(rd, "rd") << 22 | _check_signed(imm, 22, "imm")


def _pack_mem(rd: int, ra: int, rb: int, imm: int, freq: int) -> int:
    return (_check_reg(rd, "rd") << 22 | _check_reg(ra, "ra") << 18
            | _check_signed(imm, 18, "offset"))


def _pack_branch(rd: int, ra: int, rb: int, imm: int, freq: int) -> int:
    return (_check_reg(ra, "ra") << 22 | _check_reg(rb, "rb") << 18
            | _check_signed(imm, 18, "offset"))


def _pack_jump(rd: int, ra: int, rb: int, imm: int, freq: int) -> int:
    return _check_signed(imm, 26, "offset")


def _pack_jr(rd: int, ra: int, rb: int, imm: int, freq: int) -> int:
    return _check_reg(ra, "ra") << 22


def _pack_brr(rd: int, ra: int, rb: int, imm: int, freq: int) -> int:
    return (_check_unsigned(freq, 4, "freq") << 22
            | _check_signed(imm, 22, "offset"))


def _pack_marker(rd: int, ra: int, rb: int, imm: int, freq: int) -> int:
    return _check_unsigned(imm, 26, "marker id")


def _pack_none(rd: int, ra: int, rb: int, imm: int, freq: int) -> int:
    return 0


#: Format -> ``pack(rd, ra, rb, imm, freq)``: the range-checked
#: operand bits (25:0) of a word.  The one definition of the field
#: layout, shared by :func:`encode` and the assembler.
FIELD_PACKERS = {
    Format.R: _pack_r, Format.I: _pack_i, Format.LI: _pack_li,
    Format.MEM: _pack_mem, Format.BRANCH: _pack_branch,
    Format.JUMP: _pack_jump, Format.JR: _pack_jr, Format.BRR: _pack_brr,
    Format.MARKER: _pack_marker, Format.NONE: _pack_none,
}


def encode(instr: Instruction) -> int:
    """Encode an instruction into its 32-bit word."""
    op = instr.op
    return int(op) << 26 | FIELD_PACKERS[FORMATS[op]](
        instr.rd, instr.ra, instr.rb, instr.imm, instr.freq)


_OP_BY_VALUE = {int(op): op for op in Op}


def decode(word: int, pc: Optional[int] = None) -> Instruction:
    """Decode a 32-bit word; raise :class:`InvalidOpcodeError` if the
    opcode is not architected."""
    opval = (word >> 26) & 0x3F
    op = _OP_BY_VALUE.get(opval)
    if op is None:
        raise InvalidOpcodeError(word, pc)
    fmt = FORMATS[op]
    if fmt is Format.R:
        return Instruction(op, rd=(word >> 22) & 0xF, ra=(word >> 18) & 0xF,
                           rb=(word >> 14) & 0xF)
    if fmt in (Format.I, Format.MEM):
        return Instruction(op, rd=(word >> 22) & 0xF, ra=(word >> 18) & 0xF,
                           imm=_sext(word & 0x3FFFF, 18))
    if fmt is Format.LI:
        return Instruction(op, rd=(word >> 22) & 0xF,
                           imm=_sext(word & 0x3FFFFF, 22))
    if fmt is Format.BRANCH:
        return Instruction(op, ra=(word >> 22) & 0xF, rb=(word >> 18) & 0xF,
                           imm=_sext(word & 0x3FFFF, 18))
    if fmt is Format.JUMP:
        return Instruction(op, imm=_sext(word & 0x3FFFFFF, 26))
    if fmt is Format.JR:
        return Instruction(op, ra=(word >> 22) & 0xF)
    if fmt is Format.BRR:
        return Instruction(op, freq=(word >> 22) & 0xF,
                           imm=_sext(word & 0x3FFFFF, 22))
    if fmt is Format.MARKER:
        return Instruction(op, imm=word & 0x3FFFFFF)
    return Instruction(op)
