"""Vectorised sample-position generation for large accuracy sweeps.

The Section 4 experiments compare profiles over hundreds of millions
of method invocations.  Rather than asking a sampler object about
every event, the experiment harness generates the *positions* at which
each framework samples:

* fixed-interval counters sample an arithmetic progression;
* branch-on-random decisions come from the LFSR's output sequence,
  generated a block at a time by the squared feedback polynomial (see
  :func:`_lfsr_sequence`); a decision is the AND of the selected bits,
  one slice of that sequence per AND input, and the positions are the
  indices of taken decisions.

Equivalence with the event-level samplers is covered by tests.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.condition import ConditionUnit
from ..core.lfsr import Lfsr


#: Cap on the block the squared recurrence fills in one numpy pass.
_MAX_BLOCK = 1 << 14


def _lfsr_sequence(state: int, width: int, tap_bits: Sequence[int],
                   count: int) -> np.ndarray:
    """The first ``count >= width`` output bits of a right-shifting
    Fibonacci LFSR, as a bool array ``s``.

    Bit ``p`` of the register after ``k`` updates is ``s[k + p]``:
    ``s[:width]`` is the seed ``state`` and every later bit is the
    feedback ``s[j + width] = XOR_b s[j + b]`` over ``tap_bits``
    (which include 0).  Squaring the feedback polynomial ``k`` times
    gives ``s[m] = XOR_b s[m - 2**k * (width - b)]`` for
    ``m >= 2**k * width``; every lag is at least ``2**k``, so a block
    of ``2**k`` new bits is the XOR of ``len(tap_bits)`` earlier
    slices.  The block doubles whenever enough bits are filled, up to
    :data:`_MAX_BLOCK`.
    """
    seq = np.empty(count, dtype=bool)
    seq[:width] = [(state >> position) & 1 for position in range(width)]
    filled, block = width, 1
    while filled < count:
        while block < _MAX_BLOCK and filled >= 2 * block * width:
            block *= 2
        size = min(block, count - filled)
        out = seq[filled:filled + size]
        starts = [filled - block * (width - bit) for bit in tap_bits]
        np.copyto(out, seq[starts[0]:starts[0] + size])
        for start in starts[1:]:
            np.bitwise_xor(out, seq[start:start + size], out=out)
        filled += size
    return seq


def _brr_decisions(state: int, n: int, width: int,
                   tap_bits: Sequence[int],
                   selection: Sequence[int]) -> Tuple[np.ndarray, int]:
    """Decisions of ``n`` consecutive branch-on-randoms from register
    ``state``, and the register after them.

    Decision ``k`` is the AND of bits ``selection`` of the register
    after ``k`` updates, i.e. of ``s[k + p]`` for each selected ``p``.
    """
    seq = _lfsr_sequence(state, width, tap_bits, n + width)
    first = selection[0]
    decisions = seq[first:first + n].copy()
    for position in selection[1:]:
        decisions &= seq[position:position + n]
    packed = np.packbits(seq[n:n + width], bitorder="little")
    return decisions, int.from_bytes(packed.tobytes(), "little")


def _brr_config(field: int, width: int, taps: Optional[Sequence[int]],
                seed: int, policy) -> Tuple[int, Tuple[int, ...],
                                            Tuple[int, ...]]:
    """Seed state, tap bits and AND-input selection of a configuration,
    validated by building the hardware model once."""
    lfsr = Lfsr(width, taps=taps, seed=seed)
    selection = ConditionUnit(lfsr, policy).bit_selection(field)
    return lfsr.state, lfsr._tap_bits, selection


def periodic_positions(n: int, interval: int, first: Optional[int] = None) -> np.ndarray:
    """Sample positions of a fixed-interval counter over ``n`` events.

    ``first`` is the index of the first sample; both counter samplers
    default to ``interval - 1`` (the counter starts at the sampling
    interval and fires when it reaches zero).
    """
    if n < 0:
        raise ValueError("event count must be non-negative")
    if interval < 1:
        raise ValueError("interval must be >= 1")
    if first is None:
        first = interval - 1
    if first < 0:
        raise ValueError("first sample index must be non-negative")
    return np.arange(first, n, interval, dtype=np.int64)


def brr_decision_array(
    n: int,
    field: int,
    width: int = 16,
    taps: Optional[Sequence[int]] = None,
    seed: int = 1,
    policy="spaced",
) -> np.ndarray:
    """Taken/not-taken decisions of ``n`` consecutive branch-on-randoms.

    Functionally identical to resolving ``n`` times through
    :class:`~repro.core.brr.BranchOnRandomUnit`: the AND tree's output
    is 1 exactly when every selected LFSR bit is set.
    """
    if n < 0:
        raise ValueError("decision count must be non-negative")
    state, tap_bits, selection = _brr_config(field, width, taps, seed,
                                             policy)
    return _brr_decisions(state, n, width, tap_bits, selection)[0]


def brr_positions(
    n: int,
    field: int,
    width: int = 16,
    taps: Optional[Sequence[int]] = None,
    seed: int = 1,
    policy="spaced",
) -> np.ndarray:
    """Positions at which branch-on-random samples over ``n`` events."""
    return np.flatnonzero(
        brr_decision_array(n, field, width=width, taps=taps, seed=seed,
                           policy=policy)
    ).astype(np.int64)


class CounterPositionStream:
    """Chunked arithmetic-progression positions of a fixed-interval
    counter; state carries across chunks so multi-hundred-megabyte
    event streams can be processed piecewise."""

    def __init__(self, interval: int, first: Optional[int] = None) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval
        self._next = interval - 1 if first is None else first
        if self._next < 0:
            raise ValueError("first sample index must be non-negative")

    def take(self, n: int) -> np.ndarray:
        """Sample positions within the next ``n`` events (chunk-local
        indices)."""
        if n < 0:
            raise ValueError("chunk size must be non-negative")
        positions = np.arange(self._next, n, self.interval, dtype=np.int64)
        if positions.size:
            self._next = int(positions[-1]) + self.interval - n
        else:
            self._next -= n
        return positions


class BrrPositionStream:
    """Chunked branch-on-random positions with persistent LFSR state."""

    def __init__(
        self,
        field: int,
        width: int = 16,
        taps: Optional[Sequence[int]] = None,
        seed: int = 1,
        policy="spaced",
    ) -> None:
        self._width = width
        self._state, self._tap_bits, self._selection = _brr_config(
            field, width, taps, seed, policy)

    def take(self, n: int) -> np.ndarray:
        """Sample positions within the next ``n`` events."""
        if n < 0:
            raise ValueError("chunk size must be non-negative")
        decisions, self._state = _brr_decisions(
            self._state, n, self._width, self._tap_bits, self._selection)
        return np.flatnonzero(decisions).astype(np.int64)


def profile_counts(events: np.ndarray, positions: Optional[np.ndarray],
                   num_keys: Optional[int] = None) -> np.ndarray:
    """Per-method sample counts over an int event array.

    ``positions=None`` gives the full profile.
    """
    if num_keys is None:
        num_keys = int(events.max()) + 1 if events.size else 0
    selected = events if positions is None else events[positions]
    return np.bincount(selected, minlength=num_keys)


def overlap_from_counts(full: np.ndarray, sampled: np.ndarray) -> float:
    """Vectorised Section 4.1 overlap accuracy (0..100)."""
    full_total = full.sum()
    if full_total == 0:
        raise ValueError("full profile is empty")
    sampled_total = sampled.sum()
    if sampled_total == 0:
        return 0.0
    length = max(len(full), len(sampled))
    f = np.zeros(length, dtype=np.float64)
    s = np.zeros(length, dtype=np.float64)
    f[:len(full)] = full / full_total
    s[:len(sampled)] = sampled / sampled_total
    return 100.0 * float(np.minimum(f, s).sum())
