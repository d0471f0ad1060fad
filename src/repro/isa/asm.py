"""Two-pass assembler for the reproduction ISA.

Syntax overview (one statement per line, ``;`` or ``#`` comments)::

    loop:
        lb    r2, 0(r1)        ; load byte
        addi  r1, r1, 1
        slti  r3, r2, 97
        beq   r3, r0, lower
        brr   1/1024, profile  ; branch-on-random, interval syntax
        brra  common           ; 100%-taken brr (footnote 4)
        jal   helper
        ret                    ; pseudo: jr lr
        marker 1
        halt
        .word 0xdeadbeef

Branch-on-random frequencies accept three spellings: a raw field value
(``brr 9, target``), an interval (``brr 1/1024, target``), or a percent
(``brr 1%, target`` — rounded to the nearest encodable power of two,
exactly how a compiler would emit the instruction).

``brr_mode="trap"`` reproduces the paper's Section 3.4/4.1 software
emulation: each ``brr`` is emitted as an *invalid opcode* carrying the
freq field "followed by 4 bytes for a branch offset"; the functional
simulator's SIGILL-style handler emulates the branch.  ``brra`` lowers
to a plain ``jmp`` in trap mode (its only difference from ``jmp`` is
microarchitectural).
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .instructions import (
    FIELD_PACKERS,
    FORMATS,
    NUM_REGS,
    WORD,
    EncodingError,
    Format,
    Op,
)
from .program import Program
from ..core.condition import field_for_interval, nearest_field

#: Opcode value (bits 31:26) reserved as *un-architected*: decoding it
#: raises InvalidOpcodeError, which the trap-emulation path catches.
TRAP_BRR_OPCODE = 0x3D

#: Registers may be written r0..r15 or by ABI alias.
REG_ALIASES = {"sp": 14, "lr": 15}

#: Every register spelling (lower case) -> register number.
_REGISTERS = {f"r{reg}": reg for reg in range(NUM_REGS)}
_REGISTERS.update(REG_ALIASES)


class AsmError(Exception):
    """Assembly failure, annotated with the offending line."""

    def __init__(self, message: str, line_no: int, line: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no
        self.line = line


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_MEM_RE = re.compile(r"^(-?\w+)\((\w+)\)$")


def parse_register(token: str) -> int:
    reg = _REGISTERS.get(token)
    if reg is None:
        reg = _REGISTERS.get(token.lower())
        if reg is None:
            raise ValueError(f"not a register: {token!r}")
    return reg


def parse_int(token: str) -> int:
    return int(token, 0)


def parse_freq(token: str) -> int:
    """Parse a brr frequency operand into its 4-bit field value."""
    token = token.strip()
    if token.endswith("%"):
        return nearest_field(float(token[:-1]) / 100.0)
    if "/" in token:
        numerator, denominator = token.split("/", 1)
        if int(numerator) != 1:
            raise ValueError(f"frequency ratio must be 1/N: {token!r}")
        return field_for_interval(int(denominator, 0))
    return int(token, 0)


class _Statement:
    """One assembled statement (pass-1 record).  ``text`` is the
    statement with its label and comment stripped."""

    __slots__ = ("kind", "args", "text", "line_no", "line", "size_words",
                 "address")

    def __init__(self, kind: str, args: List[str], text: str, line_no: int,
                 line: str, size_words: int, address: int) -> None:
        self.kind = kind
        self.args = args
        self.text = text
        self.line_no = line_no
        self.line = line
        self.size_words = size_words
        self.address = address


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, base: int = 0, brr_mode: str = "native") -> None:
        if brr_mode not in ("native", "trap"):
            raise ValueError(f"brr_mode must be 'native' or 'trap': {brr_mode!r}")
        self.base = base
        self.brr_mode = brr_mode

    # -- public entry ---------------------------------------------------

    def assemble(self, source: str) -> Program:
        """Assemble ``source``.

        Generated code repeats a few statement texts many times, so
        within this call each distinct text is parsed once and, unless
        its encoding depends on its own address (PC-relative branches,
        jumps and ``brr``), encoded once.  Nothing is kept across calls.
        """
        statements, symbols = self._parse_and_layout(source)
        words: List[int] = []
        source_map: Dict[int, str] = {}
        encoded: Dict[str, List[int]] = {}
        for stmt in statements:
            emitted = encoded.get(stmt.text)
            if emitted is None:
                emitted = self._emit(stmt, symbols)
                if stmt.kind not in _PC_RELATIVE:
                    encoded[stmt.text] = emitted
            line = stmt.line.strip()
            for index in range(len(words), len(words) + len(emitted)):
                source_map[index] = line
            words.extend(emitted)
        return Program(words, base=self.base, symbols=symbols,
                       source_map=source_map)

    # -- pass 1: parse, size, lay out ------------------------------------

    def _parse_and_layout(self, source: str):
        statements: List[_Statement] = []
        symbols: Dict[str, int] = {}
        parsed: Dict[str, Tuple[str, List[str], int]] = {}
        address = self.base
        for line_no, raw in enumerate(source.splitlines(), start=1):
            text = raw.partition(";")[0].partition("#")[0].strip()
            while ":" in text:
                match = _LABEL_RE.match(text)
                if not match:
                    break
                label = match.group(1)
                if label in symbols:
                    raise AsmError(f"duplicate label {label!r}", line_no, raw)
                symbols[label] = address
                text = text[match.end():].strip()
            if text:
                shape = parsed.get(text)
                if shape is None:
                    shape = parsed[text] = self._parse_statement(
                        text, line_no, raw)
                kind, args, size = shape
                statements.append(_Statement(kind, args, text, line_no, raw,
                                             size, address))
                address += size * WORD
        return statements, symbols

    def _parse_statement(self, text: str, line_no: int,
                         raw: str) -> Tuple[str, List[str], int]:
        """A statement's (kind, operand tokens, size in words)."""
        tokens = text.replace(",", " ").split()
        mnemonic = tokens[0].lower()
        args = tokens[1:]
        size = 1
        if mnemonic == ".word":
            size = len(args)
        elif mnemonic == ".space":
            try:
                size = parse_int(args[0])
            except (IndexError, ValueError):
                raise AsmError(".space needs a word count", line_no, raw)
            args = [str(size)]
        elif mnemonic == "brr" and self.brr_mode == "trap":
            # Invalid opcode word + 4-byte branch offset (Section 4.1).
            mnemonic, size = "brr.trap", 2
        elif mnemonic == "brra" and self.brr_mode == "trap":
            mnemonic = "jmp"
        elif mnemonic == "ret":
            mnemonic, args = "jr", ["lr"]
        elif mnemonic == "mov":
            mnemonic, args = "addi", args + ["0"]
        return mnemonic, args, size

    # -- pass 2: encode ---------------------------------------------------

    def _resolve(self, token: str, symbols: Dict[str, int],
                 stmt: _Statement) -> int:
        """Label address or literal integer."""
        if token in symbols:
            return symbols[token]
        try:
            return parse_int(token)
        except ValueError:
            raise AsmError(f"undefined symbol {token!r}", stmt.line_no, stmt.line)

    def _branch_offset(self, token: str, symbols: Dict[str, int],
                       stmt: _Statement) -> int:
        """PC-relative word offset to a label (relative to pc + 4)."""
        target = self._resolve(token, symbols, stmt)
        delta = target - (stmt.address + WORD)
        if delta % WORD:
            raise AsmError(f"misaligned target {token!r}", stmt.line_no, stmt.line)
        return delta // WORD

    def _emit(self, stmt: _Statement, symbols: Dict[str, int]) -> List[int]:
        try:
            entry = _MNEMONICS.get(stmt.kind)
            if entry is None:
                raise ValueError(f"unknown mnemonic {stmt.kind!r}")
            opcode, operands, pack = entry
            if pack is None:
                return operands(self, stmt.args, symbols, stmt)
            return [opcode | pack(*operands(self, stmt.args, symbols, stmt))]
        except (ValueError, IndexError, EncodingError) as exc:
            raise AsmError(str(exc), stmt.line_no, stmt.line) from exc


# -- per-format operand parsers ------------------------------------------
#
# Each maps a statement's operand tokens to the ``(rd, ra, rb, imm,
# freq)`` fields the format's packer (``FIELD_PACKERS``) range-checks
# and lays out.  Directives and the trap-mode ``brr`` have no packer
# and return their words directly.


def _operands_r(asm, args, symbols, stmt):
    return (parse_register(args[0]), parse_register(args[1]),
            parse_register(args[2]), 0, 0)


def _operands_i(asm, args, symbols, stmt):
    return (parse_register(args[0]), parse_register(args[1]), 0,
            asm._resolve(args[2], symbols, stmt), 0)


def _operands_li(asm, args, symbols, stmt):
    return (parse_register(args[0]), 0, 0,
            asm._resolve(args[1], symbols, stmt), 0)


def _operands_mem(asm, args, symbols, stmt):
    rd = parse_register(args[0])
    match = _MEM_RE.match(args[1])
    if not match:
        raise ValueError(f"expected offset(base), got {args[1]!r}")
    return (rd, parse_register(match.group(2)), 0,
            parse_int(match.group(1)), 0)


def _operands_branch(asm, args, symbols, stmt):
    return (0, parse_register(args[0]), parse_register(args[1]),
            asm._branch_offset(args[2], symbols, stmt), 0)


def _operands_jump(asm, args, symbols, stmt):
    return (0, 0, 0, asm._branch_offset(args[0], symbols, stmt), 0)


def _operands_jr(asm, args, symbols, stmt):
    return (0, parse_register(args[0]), 0, 0, 0)


def _operands_brr(asm, args, symbols, stmt):
    return (0, 0, 0, asm._branch_offset(args[1], symbols, stmt),
            parse_freq(args[0]))


def _operands_marker(asm, args, symbols, stmt):
    return (0, 0, 0, parse_int(args[0]), 0)


def _operands_none(asm, args, symbols, stmt):
    return (0, 0, 0, 0, 0)


def _emit_words(asm, args, symbols, stmt):
    return [asm._resolve(a, symbols, stmt) & 0xFFFFFFFF for a in args]


def _emit_space(asm, args, symbols, stmt):
    return [0] * int(args[0])


def _emit_trap_brr(asm, args, symbols, stmt):
    freq = parse_freq(args[0])
    if not 0 <= freq < 16:
        raise ValueError(f"freq field out of range: {freq}")
    target = asm._resolve(args[1], symbols, stmt)
    # Offset applied by the trap handler relative to the 8-byte (opcode
    # + offset word) emulated instruction.
    offset = target - (stmt.address + 2 * WORD)
    return [(TRAP_BRR_OPCODE << 26) | (freq << 22), offset & 0xFFFFFFFF]


_OPERANDS = {
    Format.R: _operands_r, Format.I: _operands_i, Format.LI: _operands_li,
    Format.MEM: _operands_mem, Format.BRANCH: _operands_branch,
    Format.JUMP: _operands_jump, Format.JR: _operands_jr,
    Format.BRR: _operands_brr, Format.MARKER: _operands_marker,
    Format.NONE: _operands_none,
}

#: Statement kind -> (opcode bits, operand parser, field packer): every
#: architected mnemonic, plus the directives and trap-mode ``brr``
#: (packer ``None``: the parser returns the words itself).
_MNEMONICS = {
    op.name.lower(): (int(op) << 26, _OPERANDS[FORMATS[op]],
                      FIELD_PACKERS[FORMATS[op]])
    for op in Op
}
_MNEMONICS.update({
    ".word": (0, _emit_words, None),
    ".space": (0, _emit_space, None),
    "brr.trap": (0, _emit_trap_brr, None),
})

#: Statement kinds whose words depend on the statement's own address.
_PC_RELATIVE = frozenset(
    [op.name.lower() for op in Op
     if FORMATS[op] in (Format.BRANCH, Format.JUMP, Format.BRR)]
    + ["brr.trap"])


def assemble(source: str, base: int = 0, brr_mode: str = "native") -> Program:
    """Assemble ``source`` into a :class:`Program`."""
    return Assembler(base=base, brr_mode=brr_mode).assemble(source)
