"""CI/variance arithmetic and the population-aware estimators."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.analysis.stats import (
    matched_pair_interval,
    mean,
    sample_std,
    stderr,
    t_critical,
    t_interval,
)
from repro.stats import (
    Estimate,
    SamplingPlan,
    SamplingSummary,
    estimate_mean,
    finite_population_correction,
    matched_pair_estimate,
    stratified_estimate,
)


class TestAnalysisStats:
    def test_stderr_matches_definition(self):
        values = [1.0, 2.0, 4.0, 8.0]
        assert stderr(values) == pytest.approx(
            sample_std(values) / math.sqrt(4))

    def test_t_critical_matches_scipy(self):
        # Exact: t_critical must be bit-identical to scipy.stats.t.ppf,
        # or every sampled CI could move in its last bit.
        for df in range(1, 1001):
            for confidence in (0.8, 0.9, 0.95, 0.99):
                assert t_critical(df, confidence) == float(
                    scipy_stats.t.ppf((1 + confidence) / 2, df)), \
                    (df, confidence)
        with pytest.raises(ValueError):
            t_critical(0)
        with pytest.raises(ValueError):
            t_critical(5, confidence=1.0)

    def test_t_interval_matches_scipy(self):
        values = [2.0, 3.0, 5.0, 7.0, 11.0]
        center, half = t_interval(values, 0.95)
        low, high = scipy_stats.t.interval(
            0.95, len(values) - 1, loc=mean(values), scale=stderr(values))
        assert center - half == pytest.approx(low)
        assert center + half == pytest.approx(high)

    def test_t_interval_single_sample_is_unbounded(self):
        center, half = t_interval([42.0])
        assert center == 42.0 and math.isinf(half)

    def test_matched_pair_interval(self):
        a, b = [5.0, 7.0, 9.0], [4.0, 5.0, 6.0]
        center, half = matched_pair_interval(a, b)
        expected_center, expected_half = t_interval([1.0, 2.0, 3.0])
        assert (center, half) == (expected_center, expected_half)
        with pytest.raises(ValueError):
            matched_pair_interval([1.0], [1.0, 2.0])


class TestEstimateMean:
    def test_complete_sample_is_exact(self):
        est = estimate_mean([1.0, 2.0, 3.0], population=3)
        assert est.half_width == 0.0
        assert est.exhaustive
        assert est.describe().endswith("(exact)")
        assert est.covers(2.0) and not est.covers(2.0001)

    def test_single_sample_is_unbounded(self):
        est = estimate_mean([5.0], population=10)
        assert math.isinf(est.half_width)
        assert est.covers(1e9)
        assert "±?" in est.describe()
        assert est.to_dict()["half_width"] is None

    def test_fpc_tightens_the_interval(self):
        values = [2.0, 3.0, 5.0, 7.0]
        _center, raw_half = t_interval(values)
        finite = estimate_mean(values, population=5)
        assert finite.half_width < raw_half
        assert finite.half_width == pytest.approx(
            raw_half * finite_population_correction(4, 5))

    def test_rejects_oversized_sample(self):
        with pytest.raises(ValueError):
            estimate_mean([1.0, 2.0], population=1)
        with pytest.raises(ValueError):
            estimate_mean([])

    def test_covers_rejects_nan(self):
        est = estimate_mean([1.0, 2.0], population=10)
        assert not est.covers(float("nan"))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=20))
    def test_point_estimate_is_the_sample_mean(self, values):
        est = estimate_mean(values, population=len(values))
        assert est.point == mean(values)
        assert est.half_width == 0.0  # n == N: exhaustive, exact


class TestPairedAndStratified:
    def test_matched_pair_estimate_is_delta_mean(self):
        pairs = [(5.0, 4.0), (7.0, 5.0), (9.0, 6.0)]
        est = matched_pair_estimate(pairs, population=3)
        assert est.point == pytest.approx(2.0)
        assert est.half_width == 0.0  # complete => exact

    def test_stratified_point_is_size_weighted(self):
        est = stratified_estimate([([2.0, 4.0], 2), ([10.0], 1)])
        # Fully observed strata: exact size-weighted mean, zero width.
        assert est.point == pytest.approx((3.0 * 2 + 10.0 * 1) / 3)
        assert est.half_width == 0.0

    def test_stratified_underobserved_singleton_is_unbounded(self):
        est = stratified_estimate([([2.0], 4), ([1.0, 3.0], 4)])
        assert math.isinf(est.half_width)

    def test_stratified_partial_has_finite_width(self):
        est = stratified_estimate([([2.0, 4.0, 6.0], 6),
                                   ([1.0, 3.0], 4)])
        assert 0.0 < est.half_width < float("inf")
        assert est.n == 5 and est.population == 10


class TestFpc:
    def test_bounds(self):
        assert finite_population_correction(5, 5) == 0.0
        assert finite_population_correction(1, 2) == pytest.approx(1.0)

    def test_monotone_in_sample_size(self):
        widths = [finite_population_correction(n, 100)
                  for n in (10, 50, 90, 100)]
        assert widths == sorted(widths, reverse=True)


class TestSamplingSummary:
    def _summary(self):
        return SamplingSummary(
            plan=SamplingPlan(mode="fraction", fraction=0.5, seed=3),
            windows_population=20, windows_run=10,
            cells_population=10, cells_run=5,
            estimates={"overhead %": estimate_mean([1.0, 2.0],
                                                   population=10)},
        )

    def test_describe_and_complete(self):
        summary = self._summary()
        assert not summary.complete
        lines = summary.describe()
        assert lines[0].startswith("sampling: fraction:0.5 seed=3")
        assert "ran 10/20 windows" in lines[0]
        assert any("overhead %" in line for line in lines[1:])

    def test_to_dict_round_trips_plan(self):
        data = self._summary().to_dict()
        assert data["plan"]["mode"] == "fraction"
        assert data["windows_run"] == 10
        assert "overhead %" in data["estimates"]
