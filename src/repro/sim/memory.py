"""Byte-addressed little-endian memory for the functional simulator."""

from __future__ import annotations

import struct

from ..isa.instructions import WORD
from ..isa.program import Program


class MemoryError_(Exception):
    """Out-of-range or misaligned memory access."""


class Memory:
    """A flat byte-addressed memory image.

    Words are 32-bit little-endian.  All accesses are bounds checked;
    word accesses must be aligned, matching the hardware the timing
    model assumes.
    """

    def __init__(self, size: int = 1 << 20) -> None:
        if size <= 0 or size % WORD:
            raise ValueError(f"memory size must be a positive multiple of {WORD}")
        self.size = size
        self._bytes = bytearray(size)

    def _check(self, addr: int, width: int) -> None:
        if not 0 <= addr <= self.size - width:
            raise MemoryError_(
                f"access of {width} bytes at {addr:#x} outside memory of "
                f"size {self.size:#x}"
            )

    def load_byte(self, addr: int) -> int:
        self._check(addr, 1)
        return self._bytes[addr]

    def store_byte(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self._bytes[addr] = value & 0xFF

    def load_word(self, addr: int) -> int:
        self._check(addr, WORD)
        if addr % WORD:
            raise MemoryError_(f"misaligned word load at {addr:#x}")
        return int.from_bytes(self._bytes[addr:addr + WORD], "little")

    def store_word(self, addr: int, value: int) -> None:
        self._check(addr, WORD)
        if addr % WORD:
            raise MemoryError_(f"misaligned word store at {addr:#x}")
        self._bytes[addr:addr + WORD] = (value & 0xFFFFFFFF).to_bytes(WORD, "little")

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Bulk initialisation (e.g. the microbenchmark's text buffer)."""
        self._check(addr, max(len(data), 1))
        self._bytes[addr:addr + len(data)] = data

    def read_bytes(self, addr: int, length: int) -> bytes:
        self._check(addr, max(length, 1))
        return bytes(self._bytes[addr:addr + length])

    def load_program(self, program: Program) -> None:
        """Copy an assembled image into memory at its base address, in
        one bulk write."""
        end = program.base + program.size_bytes
        if end > self.size:
            raise MemoryError_(
                f"program image ends at {end:#x}, beyond memory size "
                f"{self.size:#x}"
            )
        words = program.words
        if words:
            self._check(program.base, WORD)
            self._bytes[program.base:end] = struct.pack(
                f"<{len(words)}I", *[word & 0xFFFFFFFF for word in words])
