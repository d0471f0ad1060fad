"""Statistical sampling of window populations (``docs/sampling.md``).

The plan/execute/estimate pipeline: experiments declare their full
window space as a :class:`WindowPopulation` of :class:`Cell`\\ s, a
:class:`SamplingPlan` deterministically selects which cells a run
executes (``exhaustive`` | ``fraction`` | ``budget`` | ``adaptive``),
and the estimators turn the sampled payloads into point estimates
with confidence intervals (:class:`Estimate`,
:class:`SamplingSummary`).  ``fraction=1.0`` degenerates into the
pre-sampling exhaustive pipeline byte for byte.

Execution lives on the engine —
:meth:`repro.engine.core.ExperimentEngine.run_plan` /
:func:`repro.engine.core.run_population` — so retries, the ledger and
fault policies apply to sampled runs unchanged.
"""

from .estimators import (
    Estimate,
    SamplingSummary,
    estimate_mean,
    finite_population_correction,
    matched_pair_estimate,
    stratified_estimate,
)
from .plan import PLAN_MODES, SamplingPlan
from .population import Cell, WindowPopulation, memoised

__all__ = [
    "Cell",
    "WindowPopulation",
    "memoised",
    "PLAN_MODES",
    "SamplingPlan",
    "Estimate",
    "SamplingSummary",
    "estimate_mean",
    "finite_population_correction",
    "matched_pair_estimate",
    "stratified_estimate",
]
