"""Tests for the synthetic DaCapo invocation streams."""

import numpy as np
import pytest

from repro.workloads import get_workload
from repro.workloads.dacapo import (
    DACAPO_BENCHMARKS,
    DacapoSpec,
    event_chunks,
    method_weights,
)


def _events(spec, scale, seed=0):
    """The whole stream of ``spec`` (any spec, not only registered
    ones) as one array."""
    return np.concatenate(list(event_chunks(spec, scale=scale, seed=seed)))


class TestSpecs:
    def test_paper_ordering(self):
        names = [s.name for s in DACAPO_BENCHMARKS]
        assert names == ["fop", "antlr", "bloat", "lusearch", "xalan",
                         "jython", "pmd", "luindex"]
        counts = [s.invocations_millions for s in DACAPO_BENCHMARKS]
        assert counts == sorted(counts)
        assert counts == [7, 17, 93, 108, 109, 170, 195, 212]

    def test_spec_by_name(self):
        assert get_workload("jython").spec.pattern_fraction > 0
        with pytest.raises(KeyError):
            get_workload("chart").spec  # paper: would not run on Jikes

    def test_resonant_benchmarks(self):
        assert get_workload("jython").spec.pattern_period == 2
        assert get_workload("pmd").spec.pattern_period == 2048
        assert get_workload("luindex").spec.pattern_fraction == 0.0


class TestWeights:
    def test_normalised(self):
        weights = method_weights(get_workload("bloat").spec)
        assert weights.sum() == pytest.approx(1.0)
        assert len(weights) == get_workload("bloat").spec.methods

    def test_hot_first(self):
        weights = method_weights(get_workload("xalan").spec)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_skewed(self):
        weights = method_weights(get_workload("luindex").spec)
        assert weights[:20].sum() > 0.4  # hot subset dominates

    def test_benchmarks_differ(self):
        wa = method_weights(get_workload("bloat").spec)
        wb = method_weights(get_workload("pmd").spec)
        assert wa.shape != wb.shape or not np.allclose(wa, wb)


class TestStreams:
    def test_scaled_length(self):
        spec = get_workload("fop").spec
        events = _events(spec, scale=0.001)
        assert len(events) == int(7e6 * 0.001)

    def test_chunks_concatenate_to_whole(self):
        spec = get_workload("fop").spec
        whole = _events(spec, scale=0.003, seed=5)
        chunks = list(event_chunks(spec, scale=0.003, seed=5,
                                   chunk_size=10_000))
        assert sum(c.size for c in chunks) == whole.size
        assert np.array_equal(np.concatenate(chunks), whole)
        assert all(c.size == 10_000 for c in chunks[:-1])

    def test_deterministic_per_seed(self):
        spec = get_workload("bloat").spec
        a = _events(spec, scale=0.0005, seed=1)
        b = _events(spec, scale=0.0005, seed=1)
        c = _events(spec, scale=0.0005, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_method_ids_in_range(self):
        spec = get_workload("pmd").spec
        events = _events(spec, scale=0.001)
        assert events.min() >= 0
        assert events.max() < spec.methods

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            _events(get_workload("fop").spec, scale=0)

    def test_jython_contains_alternating_pattern(self):
        spec = get_workload("jython").spec
        events = _events(spec, scale=0.005, seed=0)
        # Find a run where methods 0/1 strictly alternate for a long
        # stretch (the patterned region).
        pattern = np.tile(np.array([0, 1], dtype=np.int32), 512)
        windows = np.lib.stride_tricks.sliding_window_view(events, 1024)
        hits = np.all(windows[:: 1024] == pattern, axis=1)
        assert hits.any()

    def test_pattern_fraction_roughly_respected(self):
        spec = get_workload("jython").spec
        events = _events(spec, scale=0.01, seed=0)
        # Methods 0 and 1 together should carry at least the patterned
        # fraction of all events.
        share = np.isin(events, (0, 1)).mean()
        assert share > spec.pattern_fraction * 0.9

    def test_unpatterned_benchmark_not_alternating(self):
        events = _events(get_workload("luindex").spec, scale=0.001)
        pairwise_alternating = np.mean(events[:-1] != events[1:])
        assert pairwise_alternating < 1.0  # some repeats exist


class TestCustomSpec:
    def test_zero_pattern_fraction(self):
        spec = DacapoSpec("custom", 1, methods=10, pattern_fraction=0.0)
        events = _events(spec, scale=0.01)
        assert len(events) == 10_000

    def test_pattern_runs_split_period(self):
        spec = DacapoSpec("custom", 1, methods=10, pattern_fraction=0.5,
                          pattern_period=8, pattern_runs=2,
                          pattern_block=1 << 14)
        events = _events(spec, scale=0.02, seed=0)
        # Patterned regions contain runs of 4 identical ids.
        assert events.size == 20_000
