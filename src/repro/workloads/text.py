"""Synthetic Shakespeare-like character streams (Section 5.3).

The paper's microbenchmark processes "half a million characters" of
Shakespearian plays, noting that "the character stream ... has words
that are all upper-case or all lower-case", which makes the
classifying branches data dependent and caps branch prediction
accuracy around 84.5%.  This generator reproduces those statistics:
words of varied length, each entirely lower- or upper-case, separated
by spaces and occasional punctuation/newlines.
"""

from __future__ import annotations

import random
from typing import Tuple

#: Character class codes used by analysis helpers.
LOWER, UPPER, OTHER = "lower", "upper", "other"

_WORD_LENGTHS = (2, 3, 4, 5, 6, 7, 8, 9)
_WORD_LENGTH_WEIGHTS = (6, 14, 18, 16, 12, 8, 4, 2)
_PUNCTUATION = b".,;:!?'\n-"


def _play_text(
    n_chars: int,
    seed: int = 0,
    upper_word_prob: float = 0.18,
    punctuation_prob: float = 0.12,
) -> bytes:
    """Generate exactly ``n_chars`` bytes of play-like text."""
    if n_chars < 0:
        raise ValueError("character count must be non-negative")
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < n_chars:
        length = rng.choices(_WORD_LENGTHS, weights=_WORD_LENGTH_WEIGHTS)[0]
        if rng.random() < upper_word_prob:
            first, span = ord("A"), 26
        else:
            first, span = ord("a"), 26
        for _ in range(length):
            out.append(first + rng.randrange(span))
        if rng.random() < punctuation_prob:
            out.append(rng.choice(_PUNCTUATION))
        out.append(ord(" "))
    return bytes(out[:n_chars])


def classify(char: int) -> str:
    """Class of one byte, mirroring the microbenchmark's branch tree:
    >= 'a' is lower-case, else >= 'A' is upper-case, else other."""
    if char >= ord("a"):
        return LOWER
    if char >= ord("A"):
        return UPPER
    return OTHER


def class_counts(text: bytes) -> Tuple[int, int, int]:
    """(lower, upper, other) character counts."""
    lower = upper = other = 0
    for char in text:
        if char >= 97:
            lower += 1
        elif char >= 65:
            upper += 1
        else:
            other += 1
    return lower, upper, other


def reference_checksum(text: bytes) -> int:
    """The checksum the microbenchmark computes, evaluated in Python.

    Lower-case characters are added, upper-case characters are added
    doubled, and other characters are XORed — matching the three
    conditional update paths in the generated assembly.
    """
    checksum = 0
    for char in text:
        if char >= 97:
            checksum = (checksum + char) & 0xFFFFFFFF
        elif char >= 65:
            checksum = (checksum + 2 * char) & 0xFFFFFFFF
        else:
            checksum ^= char
    return checksum


def site_encounters(text: bytes) -> int:
    """Instrumentation sites dynamically encountered while processing
    ``text``: one edge site for a lower-case character, two for the
    others (the second classifying branch is also profiled)."""
    lower, upper, other = class_counts(text)
    return lower + 2 * (upper + other)
