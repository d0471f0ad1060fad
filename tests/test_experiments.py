"""Integration tests for the per-figure experiment runners.

These run each experiment at a very small scale and assert the
*qualitative* results the paper reports — the full-scale numbers are
produced by the benchmark harness.
"""

import pytest

from repro.experiments import (
    accuracy_figure,
    bit_policy_sensitivity,
    cost_rows,
    figure12,
    format_accuracy_rows,
    format_cost_table,
    format_fig12_rows,
    format_figure13,
    format_figure14,
    format_sensitivity_result,
    microbench_sweep,
    run_accuracy,
    seed_noise_baseline,
    taps_sensitivity,
)
from repro.workloads import get_workload


class TestAccuracy:
    def test_jython_random_beats_counters(self):
        """The Figure 9 headline: brr avoids the resonance that costs
        the counters accuracy on jython."""
        result = run_accuracy(get_workload("jython").spec, 1 << 10, scale=0.01)
        assert result["random"].accuracy > result["sw"].accuracy + 3
        assert result["random"].accuracy > result["hw"].accuracy + 3

    def test_clean_benchmark_schemes_comparable(self):
        result = run_accuracy(get_workload("luindex").spec, 1 << 10,
                              scale=0.01)
        values = [r.accuracy for r in result.values()]
        assert max(values) - min(values) < 5

    def test_lower_rate_lower_accuracy(self):
        spec = get_workload("bloat").spec
        high = run_accuracy(spec, 1 << 10, schemes=("random",), scale=0.01)
        low = run_accuracy(spec, 1 << 13, schemes=("random",), scale=0.01)
        assert low["random"].accuracy < high["random"].accuracy

    def test_samples_track_interval(self):
        result = run_accuracy(get_workload("fop").spec, 1 << 10, scale=0.01)
        for r in result.values():
            expected = r.events / (1 << 10)
            assert abs(r.samples - expected) < expected * 0.5 + 10

    def test_figure_rows_include_average(self):
        rows = accuracy_figure(1 << 10, scale=0.003,
                               benchmarks=[get_workload("fop").spec,
                                           get_workload("antlr").spec])
        assert [r["benchmark"] for r in rows] == ["fop", "antlr", "average"]
        table = format_accuracy_rows(rows, "test")
        assert "average" in table

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_accuracy(get_workload("fop").spec, 1 << 10, schemes=("magic",),
                         scale=0.003)


class TestSensitivity:
    def test_taps_not_significant(self):
        result = taps_sensitivity(benchmark="bloat", seeds=(0, 1, 2),
                                  scale=0.004)
        assert len(result.groups) == 4
        assert not result.significant
        assert "not significant" in format_sensitivity_result(result)

    def test_bit_policy_not_significant(self):
        result = bit_policy_sensitivity(benchmark="bloat", seeds=(0, 1, 2),
                                        scale=0.004)
        assert set(result.groups) == {"contiguous", "spaced"}
        assert not result.significant

    def test_seed_noise_baseline(self):
        noise = seed_noise_baseline(benchmark="bloat", seeds=(0, 1, 2, 3),
                                    scale=0.004)
        assert 0 < noise["std"] < 10
        assert noise["min"] <= noise["mean"] <= noise["max"]


class TestFig12:
    def test_brr_beats_cbs_on_average(self):
        rows = figure12(scale=0.6)
        average = rows[-1]
        assert average.benchmark == "average"
        assert average.brr_overhead < average.cbs_overhead
        table = format_fig12_rows(rows)
        assert "jython" in table

    def test_row_fields(self):
        rows = figure12(scale=0.4)
        assert len(rows) == 6
        for row in rows[:-1]:
            assert row.base_cycles > 0
            assert row.window_instructions > 0


class TestMicrobenchSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return microbench_sweep(n_chars=1200, intervals=(8, 64, 512),
                                seed=1)

    def test_brr_floor_below_cbs(self, sweep):
        cbs = sweep.series("cbs", "full-dup", False)[-1]
        brr = sweep.series("brr", "full-dup", False)[-1]
        assert brr.cycles_per_site < cbs.cycles_per_site

    def test_overhead_decreases_with_interval(self, sweep):
        series = sweep.series("brr", "no-dup", False)
        assert series[0].overhead > series[-1].overhead

    def test_payload_costs_extra(self, sweep):
        with_payload = sweep.series("brr", "no-dup", True)[0]
        without = sweep.series("brr", "no-dup", False)[0]
        assert with_payload.overhead > without.overhead

    def test_baseline_characterisation(self, sweep):
        # Section 5.3: high cache hit rates, imperfect branch accuracy.
        assert sweep.base_l1i_hit_rate > 0.99
        assert sweep.base_l1d_hit_rate > 0.98
        assert 0.80 <= sweep.base_branch_accuracy <= 0.97
        assert sweep.full_instr_cycles_per_site > 0.3

    def test_formatters(self, sweep):
        fig13 = format_figure13(sweep)
        fig14 = format_figure14(sweep)
        assert "Figure 13" in fig13 and "brr" in fig13
        assert "Figure 14" in fig14 and "cycles/site" in fig14


class TestCostTable:
    def test_rows(self):
        rows = cost_rows()
        assert any(r.decode_width == 4 and r.replicated for r in rows)
        assert any(not r.replicated for r in rows)

    def test_format_reports_claims_hold(self):
        assert "HOLD" in format_cost_table()


class TestBenchFrontEnd:
    """``repro bench`` measures the cold front end (build + record)
    per window and per figure, next to the replay kernels."""

    def test_front_end_fields(self):
        from repro.experiments.bench_timing import bench_timing, format_bench
        from repro.experiments.fig13 import microbench_window_spec

        spec = microbench_window_spec(40, "no-dup", seed=0, kind="brr",
                                      interval=64)
        data = bench_timing([spec])
        row = data["windows"][0]
        assert row["identical"]
        assert row["build_s"] >= 0 and row["record_s"] > 0
        assert row["record_steps_per_s"] == pytest.approx(
            row["records"] / row["record_s"], rel=0.01)
        figure = data["figures"]["figure13"]
        assert figure["build_s"] == row["build_s"]
        assert figure["record_s"] == row["record_s"]
        assert figure["record_steps_per_s"] > 0
        assert "record/s" in format_bench(data)
        assert "startup" in format_bench(data)
        assert "positions brr" in format_bench(data)

    def test_positions_block(self):
        from repro.experiments.bench_timing import bench_position_rates

        positions = bench_position_rates(events=4096, draws=1 << 12)
        assert positions["brr"]["identical"]
        assert positions["draw"]["identical"]
        assert positions["brr"]["take_events_per_s"] > 0
        assert positions["draw"]["events"] == 1 << 12

    def test_startup_block(self):
        from repro.experiments.bench_timing import bench_startup

        startup = bench_startup(runs=1)
        assert startup["runs"] == 1
        assert startup["cpu_s"] > 0 and startup["peak_rss_mb"] > 0
        assert startup["modules"] > 0
        assert startup["scipy_stats_loaded"] is False
