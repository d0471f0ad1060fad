"""Tests for vectorised sample-position generation (fast path)."""

import numpy as np
import pytest

from repro.core.brr import BranchOnRandomUnit
from repro.core.condition import POLICIES, ConditionUnit
from repro.core.lfsr import Lfsr
from repro.core.taps import MAXIMAL_TAPS, PAPER_SENSITIVITY_TAPS_32
from repro.sampling import (
    BrrSampler,
    SoftwareCounterSampler,
    brr_decision_array,
    brr_positions,
    overlap_from_counts,
    periodic_positions,
    profile_counts,
)
from repro.sampling.positions import (
    _MAX_BLOCK,
    BrrPositionStream,
    _brr_decisions,
)
from repro.workloads.dacapo import (
    _DRAW_BUCKETS,
    _DRAW_SLICE,
    DACAPO_BENCHMARKS,
    _WeightedDraw,
    method_weights,
)


def masked_loop(state, n, width, tap_bits, selection):
    """The reference: clock the register once per event and AND the
    selected bits with one mask compare.  Returns the decisions and
    the register after them."""
    select_mask = sum(1 << position for position in selection)
    tap_mask = sum(1 << position for position in tap_bits)
    top = width - 1
    out = np.empty(n, dtype=bool)
    for index in range(n):
        out[index] = (state & select_mask) == select_mask
        feedback = bin(state & tap_mask).count("1") & 1
        state = (state >> 1) | (feedback << top)
    return out, state


def _tap_bits(width, taps):
    return Lfsr(width, taps=taps)._tap_bits


class TestPeriodicPositions:
    def test_default_first(self):
        positions = periodic_positions(20, 4)
        assert positions.tolist() == [3, 7, 11, 15, 19]

    def test_explicit_first(self):
        assert periodic_positions(10, 4, first=0).tolist() == [0, 4, 8]

    def test_matches_event_sampler(self):
        n, interval = 500, 16
        sampler = SoftwareCounterSampler(interval)
        expected = [i for i in range(n) if sampler.should_sample()]
        assert periodic_positions(n, interval).tolist() == expected

    def test_empty(self):
        assert periodic_positions(0, 4).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            periodic_positions(-1, 4)
        with pytest.raises(ValueError):
            periodic_positions(10, 0)
        with pytest.raises(ValueError):
            periodic_positions(10, 4, first=-1)


class TestBrrDecisions:
    def test_matches_unit_resolutions(self):
        """The masked fast loop must be bit-identical to the hardware
        model resolving the same field from the same seed."""
        n, field, seed = 2000, 3, 0xBEEF
        unit = BranchOnRandomUnit(Lfsr(16, seed=seed), policy="spaced")
        expected = [unit.resolve(field) for _ in range(n)]
        fast = brr_decision_array(n, field, width=16, seed=seed)
        assert fast.tolist() == expected

    def test_matches_unit_contiguous_policy(self):
        n, field, seed = 1000, 5, 77
        unit = BranchOnRandomUnit(Lfsr(20, seed=seed), policy="contiguous")
        expected = [unit.resolve(field) for _ in range(n)]
        fast = brr_decision_array(n, field, width=20, seed=seed,
                                  policy="contiguous")
        assert fast.tolist() == expected

    def test_positions_are_indices_of_taken(self):
        decisions = brr_decision_array(500, 2, seed=3)
        positions = brr_positions(500, 2, seed=3)
        assert positions.tolist() == np.flatnonzero(decisions).tolist()

    def test_frequency_convergence(self):
        positions = brr_positions(1 << 16, 4)  # 1/32
        rate = positions.size / (1 << 16)
        assert abs(rate - 1 / 32) < 0.004

    def test_custom_taps(self):
        positions = brr_positions(10_000, 3, width=32,
                                  taps=(32, 31, 30, 10), seed=0x1234)
        assert 0 < positions.size < 10_000

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            brr_decision_array(-1, 0)

    def test_sampler_equivalence(self):
        sampler = BrrSampler(field=2, unit=BranchOnRandomUnit(Lfsr(16, seed=9)))
        expected = [i for i in range(300) if sampler.should_sample()]
        assert brr_positions(300, 2, width=16, seed=9).tolist() == expected


class TestProfileCounts:
    def test_full_profile(self):
        events = np.array([0, 1, 1, 2, 2, 2])
        assert profile_counts(events, None).tolist() == [1, 2, 3]

    def test_sampled_profile(self):
        events = np.array([0, 1, 1, 2, 2, 2])
        counts = profile_counts(events, np.array([0, 3, 5]))
        assert counts.tolist() == [1, 0, 2]

    def test_num_keys_padding(self):
        events = np.array([0, 1])
        assert profile_counts(events, None, num_keys=5).tolist() == [1, 1, 0, 0, 0]

    def test_empty_events(self):
        counts = profile_counts(np.array([], dtype=np.int64), None)
        assert counts.size == 0


class TestOverlapFromCounts:
    def test_matches_object_version(self):
        from repro.profiles import Profile, overlap_accuracy

        full = np.array([50, 50, 0])
        sampled = np.array([60, 40, 0])
        fast = overlap_from_counts(full, sampled)
        slow = overlap_accuracy(Profile.from_array(full),
                                Profile.from_array(sampled))
        assert fast == pytest.approx(slow)

    def test_length_mismatch_padded(self):
        assert overlap_from_counts(np.array([10]), np.array([5, 5])) == \
            pytest.approx(50.0)

    def test_empty_sampled(self):
        assert overlap_from_counts(np.array([1, 2]), np.array([0, 0])) == 0.0

    def test_empty_full_rejected(self):
        with pytest.raises(ValueError):
            overlap_from_counts(np.array([0]), np.array([1]))

    def test_perfect_sampling(self):
        full = np.array([100, 300, 600])
        assert overlap_from_counts(full, full // 100) == pytest.approx(100.0)


class TestMaskedLoopOracle:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_oracle_matches_unit(self, policy):
        """The reference loop is the hardware model, bit for bit."""
        seed, field, n = 0x5EED, 4, 1500
        lfsr = Lfsr(20, seed=seed)
        selection = ConditionUnit(lfsr, policy).bit_selection(field)
        decisions, state = masked_loop(seed, n, 20, lfsr._tap_bits,
                                       selection)
        unit = BranchOnRandomUnit(Lfsr(20, seed=seed), policy=policy)
        assert decisions.tolist() == [unit.resolve(field)
                                      for _ in range(n)]
        assert state == unit.lfsr.state


def _chunk_sizes(width):
    """0, 1 and both sides of the first few block-doubling points."""
    sizes = [0, 1]
    for k in range(4):
        sizes += [(1 << k) * width - 1, (1 << k) * width + 1]
    return sizes + [0, 3]


class TestBlockRecurrence:
    """The squared-polynomial kernel against the masked loop."""

    @pytest.mark.parametrize("width", sorted(MAXIMAL_TAPS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_every_field_over_mixed_chunks(self, width, policy):
        tap_bits = _tap_bits(width, MAXIMAL_TAPS[width])
        seed = (0x9E3779B1 * width) & ((1 << width) - 1) or 1
        for count in range(1, min(width, 16) + 1):
            selection = POLICIES[policy](count, width)
            fast_state = slow_state = seed
            for size in _chunk_sizes(width):
                fast, fast_state = _brr_decisions(
                    fast_state, size, width, tap_bits, selection)
                slow, slow_state = masked_loop(
                    slow_state, size, width, tap_bits, selection)
                assert fast.dtype == bool
                assert fast.tolist() == slow.tolist()
                assert fast_state == slow_state

    @pytest.mark.parametrize("taps", PAPER_SENSITIVITY_TAPS_32,
                             ids=lambda taps: ",".join(map(str, taps)))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_paper_taps_every_field(self, taps, policy):
        tap_bits = _tap_bits(32, taps)
        for field in range(16):
            selection = ConditionUnit(Lfsr(32, taps=taps),
                                      policy).bit_selection(field)
            fast_state = slow_state = 0xDEADBEEF
            for size in _chunk_sizes(32):
                fast, fast_state = _brr_decisions(
                    fast_state, size, 32, tap_bits, selection)
                slow, slow_state = masked_loop(
                    slow_state, size, 32, tap_bits, selection)
                assert fast.tolist() == slow.tolist()
                assert fast_state == slow_state

    @pytest.mark.parametrize("width", [4, 16])
    def test_chunks_at_every_doubling_point(self, width):
        """Chunk sizes ``2**k * width +- 1`` for every block size up to
        the cap; a one-bit selection exposes the whole sequence."""
        tap_bits = _tap_bits(width, MAXIMAL_TAPS[width])
        fast_state = slow_state = 1
        block = 1
        while block <= _MAX_BLOCK:
            for size in (block * width - 1, block * width + 1):
                fast, fast_state = _brr_decisions(
                    fast_state, size, width, tap_bits, (0,))
                slow, slow_state = masked_loop(
                    slow_state, size, width, tap_bits, (0,))
                assert np.array_equal(fast, slow)
                assert fast_state == slow_state
            block *= 2

    @pytest.mark.parametrize("taps", PAPER_SENSITIVITY_TAPS_32[:2],
                             ids=lambda taps: ",".join(map(str, taps)))
    def test_run_past_the_block_cap(self, taps):
        """One run longer than ``_MAX_BLOCK * width`` events reaches
        every squaring level, the capped one included."""
        tap_bits = _tap_bits(32, taps)
        n = 2 * _MAX_BLOCK * 32 + 7
        fast, fast_state = _brr_decisions(0x1234567, n, 32, tap_bits, (0,))
        slow, slow_state = masked_loop(0x1234567, n, 32, tap_bits, (0,))
        assert np.array_equal(fast, slow)
        assert fast_state == slow_state

    def test_stream_carries_the_register(self):
        """``take`` over uneven chunks equals one long decision array,
        and the carried register is the hardware model's."""
        stream = BrrPositionStream(5, width=32,
                                   taps=PAPER_SENSITIVITY_TAPS_32[2],
                                   seed=0xCAFE)
        unit = BranchOnRandomUnit(
            Lfsr(32, taps=PAPER_SENSITIVITY_TAPS_32[2], seed=0xCAFE))
        offset, positions = 0, []
        for size in (0, 1, 63, 65, 1000, 0, 4097):
            positions += (stream.take(size) + offset).tolist()
            offset += size
            for _ in range(size):
                unit.resolve(5)
            assert stream._state == unit.lfsr.state
        whole = brr_positions(offset, 5, width=32,
                              taps=PAPER_SENSITIVITY_TAPS_32[2],
                              seed=0xCAFE)
        assert positions == whole.tolist()


class _ScriptedRng:
    """Stands in for a Generator: ``random`` returns fresh arrays of
    scripted uniforms, in order."""

    def __init__(self, uniforms):
        self._uniforms = np.asarray(uniforms, dtype=np.float64)
        self._next = 0

    def random(self, size):
        out = self._uniforms[self._next:self._next + size].copy()
        self._next += size
        return out


class TestWeightedDraw:
    """The bucketed draw against ``Generator.choice``."""

    @pytest.mark.parametrize("spec", DACAPO_BENCHMARKS,
                             ids=[spec.name for spec in DACAPO_BENCHMARKS])
    def test_matches_choice_on_dacapo_weights(self, spec):
        weights = method_weights(spec)
        draw = _WeightedDraw(weights)
        for seed, size in ((spec.seed, 1), (1, 1000),
                           (2, _DRAW_SLICE + 1)):
            expected = np.random.default_rng(seed).choice(
                weights.size, size, p=weights)
            got = draw(np.random.default_rng(seed), size)
            assert got.dtype.name == "int32"
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("weights", [
        [0.25, 0.25, 0.5],
        [0.3, 0.0, 0.7],
        [0.0, 0.5, 0.5, 0.0],
        [1.0],
    ], ids=["bucket-edges", "zero-inside", "zero-ends", "single"])
    @pytest.mark.parametrize("size", [_DRAW_SLICE - 1, _DRAW_SLICE,
                                      2 * _DRAW_SLICE + 5])
    def test_matches_choice_on_adversarial_weights(self, weights, size):
        weights = np.asarray(weights)
        expected = np.random.default_rng(7).choice(weights.size, size,
                                                   p=weights)
        got = _WeightedDraw(weights)(np.random.default_rng(7), size)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("weights", [
        [0.25, 0.25, 0.5],
        [0.3, 0.0, 0.7],
        method_weights(DACAPO_BENCHMARKS[-1]),
    ], ids=["bucket-edges", "zero-inside", "luindex"])
    def test_exact_on_bucket_edges_and_cdf_values(self, weights):
        """Uniforms on every bucket edge, on every cdf value and one
        ulp either side of it give ``searchsorted(..., "right")``."""
        weights = np.asarray(weights, dtype=np.float64)
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        points = np.concatenate([
            np.arange(_DRAW_BUCKETS) / _DRAW_BUCKETS,
            cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
            [np.nextafter(1.0, 0.0)],
        ])
        points = points[(points >= 0.0) & (points < 1.0)]
        got = _WeightedDraw(weights)(_ScriptedRng(points), points.size)
        assert np.array_equal(got, cdf.searchsorted(points, side="right"))
