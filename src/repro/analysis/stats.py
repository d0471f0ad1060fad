"""Small statistics helpers used by the experiment harness.

This is the single home of the CI/variance arithmetic the sampled
experiment pipeline relies on (``repro.stats.estimators`` wraps these
into population-aware :class:`~repro.stats.estimators.Estimate`
objects): plain means, unbiased standard deviations, standard errors,
Student-t intervals and matched-pair deltas.  Everything takes plain
sequences and returns plain floats, so experiment reducers can reuse
the exact arithmetic (and therefore the exact float results) the
estimators do.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Unbiased sample standard deviation."""
    if len(values) < 2:
        raise ValueError("need at least two samples")
    center = mean(values)
    return (sum((v - center) ** 2 for v in values) / (len(values) - 1)) ** 0.5


def stderr(values: Sequence[float]) -> float:
    """Standard error of the mean (unbiased sample std / sqrt(n))."""
    return sample_std(values) / math.sqrt(len(values))


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value at ``confidence``.

    ``scipy.special.stdtrit`` is the quantile ``scipy.stats.t.ppf``
    itself dispatches to (loc 0, scale 1), so the value is bit-identical
    to ``t.ppf`` without importing all of ``scipy.stats``.
    """
    if df < 1:
        raise ValueError(f"need df >= 1, got {df}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    from scipy.special import stdtrit

    return float(stdtrit(df, (1.0 + confidence) / 2.0))


def t_interval(values: Sequence[float],
               confidence: float = 0.95) -> Tuple[float, float]:
    """``(mean, half_width)`` of the two-sided t confidence interval.

    One sample carries no variance information, so ``n == 1`` answers
    an infinite half-width — the honest "we cannot bound this yet"
    value the sampled figure pipeline renders as ``±?``.
    """
    center = mean(values)
    if len(values) < 2:
        return center, float("inf")
    return center, t_critical(len(values) - 1, confidence) * stderr(values)


def matched_pair_interval(a: Sequence[float], b: Sequence[float],
                          confidence: float = 0.95) -> Tuple[float, float]:
    """``(mean delta, half_width)`` for paired samples ``a[i] - b[i]``.

    Pairing removes the between-subject variance (e.g. which benchmark
    a window came from), which is what makes small-sample overhead
    deltas like Figure 12's cbs-vs-brr comparison tight.
    """
    if len(a) != len(b):
        raise ValueError(f"paired samples differ in length: "
                         f"{len(a)} vs {len(b)}")
    return t_interval([x - y for x, y in zip(a, b)], confidence)


def fit_through_origin(xs: Sequence[float], ys: Sequence[float]
                       ) -> Tuple[float, float]:
    """Least-squares slope of ``y = m*x`` plus the fit's R^2.

    Used to test Figure 2's model that the variable component of
    sampling overhead is proportional to the sampling rate.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need matching sequences of length >= 2")
    sxx = sum(x * x for x in xs)
    if sxx == 0:
        raise ValueError("degenerate x values")
    slope = sum(x * y for x, y in zip(xs, ys)) / sxx
    y_mean = mean(ys)
    ss_tot = sum((y - y_mean) ** 2 for y in ys)
    ss_res = sum((y - slope * x) ** 2 for x, y in zip(xs, ys))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return slope, r_squared


def welch_t(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Welch's t statistic and two-sided p-value (via scipy)."""
    from scipy import stats as scipy_stats

    t_stat, p_value = scipy_stats.ttest_ind(list(a), list(b), equal_var=False)
    return float(t_stat), float(p_value)


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
