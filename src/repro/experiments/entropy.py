"""Entropy sensitivity: predictor pollution vs. randomness density.

The paper's qualitative claim (Section 3) is that *check branches* —
the conditional branches counter-based sampling uses to consult its
state — expose the sampling decision stream to the branch predictor,
while ``brr`` keeps the randomness inside the LFSR unit where the
predictor never sees it.  This experiment makes that claim
quantitative with the adversarial workload generator: matched program
grids where a controllable fraction of slots (the *randomness
density*) is steered by fresh entropy-pool bytes, rendered either as
conditional pool branches (``cbs`` scheme) or as ``brr`` instructions
(``brr`` scheme).

Sweeping density x gshare history length through the sampling-aware
population pipeline yields the pollution surface: ``cbs`` branch
accuracy degrades monotonically as density rises (the predictor is
being fed coin flips), at every history length, while ``brr`` stays
flat apart from a handful of cold mispredicts.  The density-0 cell of
every (scheme, history) stratum is mandatory — it is the overhead
baseline the rest of the stratum normalises against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine import ExperimentEngine, WindowSpec, is_failure, run_population
from ..stats import (
    Cell,
    SamplingPlan,
    SamplingSummary,
    WindowPopulation,
    estimate_mean,
    memoised,
)
from ..timing.config import TimingConfig
from ..timing.runner import WindowResult, overhead_percent

#: Randomness densities swept (fraction of grid slots fed entropy).
DENSITIES: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: gshare history lengths swept (bits of global history).
HISTORY_BITS: Tuple[int, ...] = (8, 16)

#: The two matched renderings of the same entropy stream.
SCHEMES: Tuple[str, ...] = ("cbs", "brr")


@dataclass
class EntropyPoint:
    """One (scheme, history length, density) cell."""

    scheme: str
    history_bits: int
    density: float
    cycles: int
    branch_accuracy: float
    cond_branches: int
    cond_mispredicts: int
    #: Percent cycle overhead vs. the density-0 cell of the same
    #: (scheme, history) stratum.
    overhead: float


@dataclass
class EntropySweep:
    """The full pollution surface."""

    iterations: int
    stride: int
    seed: int
    points: List[EntropyPoint] = field(default_factory=list)
    #: Present only when a non-exhaustive plan left cells unrun.
    sampling: Optional[SamplingSummary] = None

    def series(self, scheme: str, history_bits: int) -> List[EntropyPoint]:
        """One curve, ordered by density."""
        return sorted(
            (p for p in self.points
             if (p.scheme, p.history_bits) == (scheme, history_bits)),
            key=lambda p: p.density,
        )

    def densities_present(self) -> List[float]:
        return sorted({p.density for p in self.points})

    def to_dict(self) -> Dict[str, Any]:
        from dataclasses import asdict

        data = asdict(self)
        data.pop("sampling", None)
        if self.sampling is not None:
            data["sampling"] = self.sampling.to_dict()
        return data


def adversarial_window_spec(
    scheme: str,
    density: float,
    *,
    iterations: int = 64,
    stride: int = 8,
    history_bits: Optional[int] = None,
    history_stress: int = 0,
    call_depth: int = 0,
    seed: int = 0,
) -> WindowSpec:
    """Declarative form of one adversarial timing window.

    Every generator knob lands in the functional cache key; only the
    history length rides in ``config`` (timing-only, so all history
    lengths of one grid share a single recorded trace).
    """
    config = (None if history_bits is None
              else TimingConfig(gshare_history_bits=history_bits))
    return WindowSpec.make(
        "adversarial",
        scheme=scheme,
        density=density,
        stride=stride,
        loop_shape=[iterations],
        history_stress=history_stress,
        call_depth=call_depth,
        seed=seed,
        config=None if config is None else config.to_dict(),
    )


def _stratum(scheme: str, history_bits: int) -> str:
    return f"{scheme}/h{history_bits}"


@memoised
def entropy_population(
    iterations: int = 64,
    stride: int = 8,
    densities: Sequence[float] = DENSITIES,
    history_bits: Sequence[int] = HISTORY_BITS,
    seed: int = 0,
) -> WindowPopulation:
    """The sweep's window space: (scheme x history x density) cells,
    stratified by curve, with every density-0 cell mandatory."""
    cells = [
        Cell(
            id=f"{_stratum(scheme, bits)}/d{density:g}",
            stratum=_stratum(scheme, bits),
            specs=(adversarial_window_spec(
                scheme, density, iterations=iterations, stride=stride,
                history_bits=bits, seed=seed),),
            mandatory=density == 0.0,
            tags=(("scheme", scheme), ("history_bits", bits),
                  ("density", density)),
        )
        for scheme in SCHEMES
        for bits in history_bits
        for density in densities
    ]
    return WindowPopulation("entropy", tuple(cells))


def entropy_sweep(
    iterations: int = 64,
    stride: int = 8,
    densities: Sequence[float] = DENSITIES,
    history_bits: Sequence[int] = HISTORY_BITS,
    seed: int = 0,
    engine: Optional[ExperimentEngine] = None,
    plan: Optional[SamplingPlan] = None,
) -> EntropySweep:
    """Run the pollution surface.

    Each cell is an independent engine window (cached by its full
    generator knob set); the sweep object is a pure reduction.  A
    non-exhaustive ``plan`` still runs every density-0 baseline and
    attaches a per-curve accuracy estimate for the rest.
    """
    population = entropy_population(iterations, stride, densities,
                                    history_bits, seed)
    run = run_population(population, plan=plan, engine=engine)

    base_cycles: Dict[str, int] = {}
    for scheme in SCHEMES:
        for bits in history_bits:
            payload = run.cell_payloads(f"{_stratum(scheme, bits)}/d0")[0]
            if is_failure(payload):
                raise RuntimeError(
                    "entropy baseline window was skipped after repeated "
                    "failures; re-run with failure_policy='retry'")
            base_cycles[_stratum(scheme, bits)] = payload["cycles"]

    sweep = EntropySweep(iterations=iterations, stride=stride, seed=seed)
    for cell in run.cells:
        payload = run.cell_payloads(cell.id)[0]
        scheme = cell.tag("scheme")
        bits = cell.tag("history_bits")
        density = cell.tag("density")
        if is_failure(payload):
            sweep.points.append(EntropyPoint(
                scheme=scheme, history_bits=bits, density=density,
                cycles=-1, branch_accuracy=float("nan"), cond_branches=0,
                cond_mispredicts=0, overhead=float("nan")))
            continue
        result = WindowResult.from_dict(payload["result"])
        sweep.points.append(EntropyPoint(
            scheme=scheme,
            history_bits=bits,
            density=density,
            cycles=result.cycles,
            branch_accuracy=result.stats.branch_accuracy,
            cond_branches=result.stats.cond_branches,
            cond_mispredicts=result.stats.cond_mispredicts,
            overhead=overhead_percent(base_cycles[_stratum(scheme, bits)],
                                      result.cycles),
        ))

    if not run.complete:
        estimates = {}
        for scheme in SCHEMES:
            for bits in history_bits:
                accuracies = [
                    p.branch_accuracy
                    for p in sweep.series(scheme, bits)
                    if not math.isnan(p.branch_accuracy)
                ]
                if accuracies:
                    estimates[f"{_stratum(scheme, bits)} accuracy"] = \
                        estimate_mean(accuracies,
                                      population=len(densities),
                                      confidence=run.plan.confidence)
        sweep.sampling = SamplingSummary(
            plan=run.plan,
            windows_population=run.windows_population,
            windows_run=run.windows_run,
            cells_population=run.cells_population,
            cells_run=run.cells_run,
            estimates=estimates,
        )
    return sweep


def pollution_trend(sweep: EntropySweep, scheme: str,
                    history_bits: int) -> List[Tuple[float, float]]:
    """(density, branch accuracy) pairs for one curve, ascending
    density — the monotonicity witness the CI smoke asserts on."""
    return [(p.density, p.branch_accuracy)
            for p in sweep.series(scheme, history_bits)
            if not math.isnan(p.branch_accuracy)]


def format_entropy(sweep: EntropySweep) -> str:
    """The pollution surface as fixed-width tables."""
    columns = sweep.densities_present()
    history = sorted({p.history_bits for p in sweep.points})
    lines = [
        f"Entropy sensitivity: branch accuracy vs. randomness density "
        f"({sweep.iterations} iterations, stride {sweep.stride})",
        "curve" + " " * 7 + " ".join(f"d={d:<5g}" for d in columns),
    ]

    def cell_text(series: List[EntropyPoint], density: float,
                  attribute: str) -> str:
        for point in series:
            if point.density == density:
                value = getattr(point, attribute)
                return "    nan" if math.isnan(value) else f"{value:7.4f}"
        return f"{'-':>7}"

    for scheme in SCHEMES:
        for bits in history:
            series = sweep.series(scheme, bits)
            if not series:
                continue
            lines.append(f"{_stratum(scheme, bits):<12}"
                         + " ".join(cell_text(series, d, "branch_accuracy")
                                    for d in columns))
    lines.append("")
    lines.append("percent cycle overhead vs. density-0 baseline:")
    for scheme in SCHEMES:
        for bits in history:
            series = sweep.series(scheme, bits)
            if not series:
                continue
            lines.append(f"{_stratum(scheme, bits):<12}"
                         + " ".join(cell_text(series, d, "overhead")
                                    for d in columns))
    if sweep.sampling is not None:
        lines.extend(sweep.sampling.describe())
    return "\n".join(lines)
