"""Figure 12: sampling-framework overhead on the JVM workloads.

"Software counter-based sampling (using Full-Duplication) averages
almost a 5% overhead on these weakly-optimized benchmarks, while the
branch-on-random-based framework achieves a 0.64% overhead.
Performance is normalized to a non-instrumented version of the code,
and both experiments use a sampling period of 1024."

The window space is declared as a :class:`~repro.stats.WindowPopulation`
(one cell per benchmark, holding its ``none``/``cbs``/``brr`` triple so
overhead deltas stay matched) and executed under an optional
:class:`~repro.stats.SamplingPlan`.  Exhaustive runs reproduce the
pre-sampling pipeline byte for byte; sampled runs additionally carry a
:class:`~repro.stats.SamplingSummary` with per-framework overhead
estimates and a matched-pair cbs-vs-brr delta CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..engine import ExperimentEngine, WindowSpec, is_failure, run_population
from ..jvm.benchmarks import FIGURE12_BENCHMARKS
from ..stats import (
    Cell,
    SamplingPlan,
    SamplingSummary,
    WindowPopulation,
    estimate_mean,
    matched_pair_estimate,
    memoised,
)
from ..timing.config import TimingConfig
from ..timing.runner import overhead_percent

#: One timed window per (benchmark, framework) variant.
VARIANTS = ("none", "cbs", "brr")


@dataclass
class Fig12Row:
    """Overhead of both frameworks on one benchmark."""

    benchmark: str
    base_cycles: int
    cbs_overhead: float
    brr_overhead: float
    window_instructions: int


@dataclass
class Fig12Report:
    """Figure 12's rows plus, for sampled runs, the estimator footer."""

    rows: List[Fig12Row]
    sampling: Optional[SamplingSummary] = None


def jvm_window_spec(
    name: str,
    variant: str,
    scale: float,
    interval: int = 1024,
    config: Optional[TimingConfig] = None,
) -> WindowSpec:
    """Declarative form of one Figure 12 timing window."""
    return WindowSpec.make(
        "jvm",
        benchmark=name,
        variant=variant,
        scale=scale,
        interval=interval if variant != "none" else None,
        config=None if config is None else config.to_dict(),
    )


@memoised
def fig12_population(
    scale: float = 3.0,
    interval: int = 1024,
    config: Optional[TimingConfig] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> WindowPopulation:
    """Figure 12's full window space: one cell per benchmark holding
    its matched ``none``/``cbs``/``brr`` triple, stratified by
    benchmark."""
    names = list(benchmarks) if benchmarks is not None \
        else list(FIGURE12_BENCHMARKS)
    cells = tuple(
        Cell(
            id=name,
            stratum=name,
            specs=tuple(jvm_window_spec(name, variant, scale, interval,
                                        config)
                        for variant in VARIANTS),
            tags=(("benchmark", name),),
        )
        for name in names
    )
    return WindowPopulation("figure12", cells)


def _reduce_row(name: str, base, cbs, brr) -> Fig12Row:
    if any(is_failure(payload) for payload in (base, cbs, brr)):
        # Skipped windows (failure_policy="skip") degrade the whole
        # benchmark row to NaN; NaN propagates into the average row.
        return Fig12Row(benchmark=name, base_cycles=0,
                        cbs_overhead=float("nan"),
                        brr_overhead=float("nan"),
                        window_instructions=0)
    return Fig12Row(
        benchmark=name,
        base_cycles=base["cycles"],
        cbs_overhead=overhead_percent(base["cycles"], cbs["cycles"]),
        brr_overhead=overhead_percent(base["cycles"], brr["cycles"]),
        window_instructions=base["instructions"],
    )


def run_benchmark(
    name: str,
    scale: float = 3.0,
    interval: int = 1024,
    config: Optional[TimingConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Fig12Row:
    """Overhead of cbs and brr Full-Duplication sampling vs. baseline."""
    population = fig12_population(scale, interval, config, benchmarks=[name])
    run = run_population(population, engine=engine)
    return _reduce_row(name, *run.cell_payloads(name))


def figure12_report(
    scale: float = 3.0,
    interval: int = 1024,
    config: Optional[TimingConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    benchmarks: Optional[Sequence[str]] = None,
    plan: Optional[SamplingPlan] = None,
) -> Fig12Report:
    """All (or a planned sample of the) benchmarks plus the average row.

    The selected cells fan out through the engine in one batch, so a
    4-worker run overlaps the benchmarks instead of timing them back
    to back.  When the plan leaves windows unrun, the report carries a
    :class:`~repro.stats.SamplingSummary`: per-framework overhead
    estimates (finite-population t intervals over benchmark cells) and
    the matched-pair cbs-minus-brr delta.
    """
    population = fig12_population(scale, interval, config, benchmarks)
    run = run_population(population, plan=plan, engine=engine)
    rows = [
        _reduce_row(cell.id, *run.cell_payloads(cell.id))
        for cell in run.cells
    ]
    rows.append(Fig12Row(
        benchmark="average",
        base_cycles=sum(r.base_cycles for r in rows),
        cbs_overhead=sum(r.cbs_overhead for r in rows) / len(rows),
        brr_overhead=sum(r.brr_overhead for r in rows) / len(rows),
        window_instructions=sum(r.window_instructions for r in rows),
    ))
    sampling = None
    if not run.complete:
        body = [row for row in rows[:-1]
                if not math.isnan(row.cbs_overhead)]
        confidence = run.plan.confidence
        estimates = {}
        if body:
            estimates["cbs overhead %"] = estimate_mean(
                [row.cbs_overhead for row in body],
                population=population.size, confidence=confidence)
            estimates["brr overhead %"] = estimate_mean(
                [row.brr_overhead for row in body],
                population=population.size, confidence=confidence)
            estimates["cbs-brr paired delta %"] = matched_pair_estimate(
                [(row.cbs_overhead, row.brr_overhead) for row in body],
                population=population.size, confidence=confidence)
        sampling = SamplingSummary(
            plan=run.plan,
            windows_population=run.windows_population,
            windows_run=run.windows_run,
            cells_population=run.cells_population,
            cells_run=run.cells_run,
            estimates=estimates,
        )
    return Fig12Report(rows=rows, sampling=sampling)


def figure12(
    scale: float = 3.0,
    interval: int = 1024,
    config: Optional[TimingConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    benchmarks: Optional[Sequence[str]] = None,
    plan: Optional[SamplingPlan] = None,
) -> List[Fig12Row]:
    """The classic rows-only view of :func:`figure12_report`."""
    return figure12_report(scale=scale, interval=interval, config=config,
                           engine=engine, benchmarks=benchmarks,
                           plan=plan).rows


def format_rows(rows: List[Fig12Row],
                sampling: Optional[SamplingSummary] = None) -> str:
    lines = [
        "Figure 12: framework overhead at period 1024 (Full-Duplication)",
        f"{'benchmark':<10} {'counter-based %':>16} {'branch-on-random %':>20}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:<10} {row.cbs_overhead:16.2f} "
            f"{row.brr_overhead:20.2f}"
        )
    if sampling is not None:
        lines.extend(sampling.describe())
    return "\n".join(lines)
