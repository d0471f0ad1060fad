"""The entropy sensitivity experiment (``repro.experiments.entropy``).

The headline assertion is the paper's pollution claim, measured:
counter-based check branches (``cbs``) lose branch-prediction accuracy
monotonically as randomness density rises, at every history length,
while the matched ``brr`` grid stays flat apart from a handful of cold
mispredicts.
"""

import json

import pytest

from repro.engine import EngineConfig, ExperimentEngine, ResultCache
from repro.experiments import (
    DENSITIES,
    adversarial_window_spec,
    entropy_population,
    entropy_sweep,
    format_entropy,
    pollution_trend,
)
from repro.stats import SamplingPlan


def _engine(tmp_path):
    return ExperimentEngine(
        config=EngineConfig(jobs=1),
        cache=ResultCache(tmp_path / "cache"))


class TestPopulation:
    def test_cell_space(self):
        population = entropy_population(history_bits=(8, 16))
        assert len(population.cells) == 2 * 2 * len(DENSITIES)
        mandatory = [cell for cell in population.cells if cell.mandatory]
        assert len(mandatory) == 4  # every (scheme, history) baseline
        assert all(cell.tag("density") == 0.0 for cell in mandatory)
        assert {cell.stratum for cell in population.cells} == {
            "cbs/h8", "cbs/h16", "brr/h8", "brr/h16"}

    def test_window_spec_keys_cover_generator_knobs(self):
        one = adversarial_window_spec("cbs", 0.25, iterations=32, seed=0)
        other = adversarial_window_spec("cbs", 0.5, iterations=32, seed=0)
        assert one.cache_key != other.cache_key
        json.dumps(one.params_dict())


class TestPollutionTrend:
    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        engine = _engine(tmp_path_factory.mktemp("entropy"))
        return entropy_sweep(iterations=48, history_bits=(8,), seed=0,
                             engine=engine)

    def test_cbs_accuracy_degrades_monotonically(self, sweep):
        accuracies = [a for _, a in pollution_trend(sweep, "cbs", 8)]
        assert len(accuracies) == len(DENSITIES)
        assert accuracies[0] - accuracies[-1] > 0.2
        assert all(later <= earlier + 0.01
                   for earlier, later in zip(accuracies, accuracies[1:]))

    def test_brr_accuracy_stays_flat(self, sweep):
        accuracies = [a for _, a in pollution_trend(sweep, "brr", 8)]
        assert max(accuracies) - min(accuracies) < 0.05

    def test_overhead_normalised_against_stratum_baseline(self, sweep):
        for scheme in ("cbs", "brr"):
            series = sweep.series(scheme, 8)
            assert series[0].density == 0.0
            assert series[0].overhead == 0.0
        cbs = sweep.series("cbs", 8)
        assert cbs[-1].overhead > cbs[0].overhead

    def test_format_and_json(self, sweep):
        text = format_entropy(sweep)
        assert "branch accuracy vs. randomness density" in text
        assert "cbs/h8" in text and "brr/h8" in text
        json.dumps(sweep.to_dict())


class TestSampledSweep:
    def test_plan_keeps_baselines_and_attaches_summary(self, tmp_path):
        plan = SamplingPlan.parse("budget:6", seed=0)
        sweep = entropy_sweep(iterations=16, history_bits=(8,), seed=0,
                              engine=_engine(tmp_path), plan=plan)
        assert sweep.sampling is not None
        for scheme in ("cbs", "brr"):
            assert sweep.series(scheme, 8)[0].density == 0.0
        assert sweep.sampling.estimates
        json.dumps(sweep.to_dict())
