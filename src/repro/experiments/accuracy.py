"""Section 4 accuracy experiments (Figures 9 and 10).

Compares three sampling schemes on the synthetic DaCapo method-
invocation streams, measuring profile quality with the overlap metric:

- ``sw`` — the Arnold-Ryder software counter (Figure 1);
- ``hw`` — the deterministic hardware counter triggered via the brr
  interface (take every Nth);
- ``random`` — branch-on-random with an LFSR.

The two counters sample identical arithmetic progressions up to phase
(we start the hardware counter at a different phase, as a separately
initialised piece of hardware would be); branch-on-random samples the
pseudo-random positions of its LFSR AND-tree.

The (benchmark, seed) grid is declared as a
:class:`~repro.stats.WindowPopulation` stratified by benchmark; under
a non-exhaustive :class:`~repro.stats.SamplingPlan` only the selected
cells run and the figure carries per-scheme accuracy estimates with
finite-population confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..analysis.stats import mean
from ..core.condition import field_for_interval
from ..engine import ExperimentEngine, WindowSpec, is_failure, run_population
from ..engine.artifacts import shallow_asdict
from ..sampling.positions import (
    BrrPositionStream,
    CounterPositionStream,
    overlap_from_counts,
)
from ..stats import (
    Cell,
    SamplingPlan,
    SamplingSummary,
    WindowPopulation,
    estimate_mean,
    memoised,
)
from ..workloads.dacapo import DACAPO_BENCHMARKS, DacapoSpec, event_chunks

SCHEMES = ("sw", "hw", "random")


def accuracy_window_spec(
    spec: DacapoSpec,
    interval: int,
    schemes: Sequence[str],
    scale: float,
    seed: int,
    lfsr_width: int = 16,
    taps: Optional[Sequence[int]] = None,
    policy: str = "spaced",
) -> WindowSpec:
    """Declarative form of one :func:`run_accuracy` call.

    The full :class:`DacapoSpec` (not just its name) rides in the spec
    so the cache key covers every workload shape parameter, and the
    workload RNG seed and LFSR derivation seed are explicit — the two
    invariants that make cached results sound.
    """
    return WindowSpec.make(
        "accuracy",
        benchmark=shallow_asdict(spec),
        interval=interval,
        schemes=tuple(schemes),
        scale=scale,
        seed=seed,
        lfsr_width=lfsr_width,
        taps=None if taps is None else tuple(taps),
        policy=policy,
    )


@dataclass
class AccuracyResult:
    """Accuracy of one (benchmark, scheme, interval) cell."""

    benchmark: str
    scheme: str
    interval: int
    accuracy: float
    samples: int
    events: int


@dataclass
class AccuracyReport:
    """Figure 9/10 rows plus, for sampled runs, the estimator footer."""

    rows: List[Dict[str, float]]
    sampling: Optional[SamplingSummary] = None


def _make_stream(scheme: str, interval: int, seed: int,
                 lfsr_width: int = 16,
                 taps: Optional[Sequence[int]] = None,
                 policy="spaced"):
    if scheme == "sw":
        return CounterPositionStream(interval)
    if scheme == "hw":
        # Same mechanism, independently initialised: different phase.
        return CounterPositionStream(interval, first=interval // 2)
    if scheme == "random":
        field = field_for_interval(interval)
        lfsr_seed = (seed * 0x9E3779B1 + 1) & ((1 << lfsr_width) - 1) or 1
        return BrrPositionStream(field, width=lfsr_width, taps=taps,
                                 seed=lfsr_seed, policy=policy)
    raise ValueError(f"unknown scheme {scheme!r}")


def run_accuracy(
    spec: DacapoSpec,
    interval: int,
    schemes: Sequence[str] = SCHEMES,
    scale: float = 0.1,
    seed: int = 0,
    lfsr_width: int = 16,
    taps: Optional[Sequence[int]] = None,
    policy="spaced",
) -> Dict[str, AccuracyResult]:
    """One benchmark at one interval: overlap accuracy per scheme.

    Streams the workload once, accumulating the full profile and each
    scheme's sampled profile chunk by chunk.
    """
    streams = {
        scheme: _make_stream(scheme, interval, seed, lfsr_width, taps, policy)
        for scheme in schemes
    }
    full = np.zeros(spec.methods, dtype=np.int64)
    sampled = {scheme: np.zeros(spec.methods, dtype=np.int64)
               for scheme in schemes}
    events = 0
    for chunk in event_chunks(spec, scale=scale, seed=seed):
        events += chunk.size
        full += np.bincount(chunk, minlength=spec.methods)
        for scheme, stream in streams.items():
            positions = stream.take(chunk.size)
            if positions.size:
                sampled[scheme] += np.bincount(chunk[positions],
                                               minlength=spec.methods)
    return {
        scheme: AccuracyResult(
            benchmark=spec.name,
            scheme=scheme,
            interval=interval,
            accuracy=overlap_from_counts(full, sampled[scheme]),
            samples=int(sampled[scheme].sum()),
            events=events,
        )
        for scheme in schemes
    }


@memoised
def accuracy_population(
    interval: int,
    scale: float = 0.1,
    seeds: Sequence[int] = (0,),
    benchmarks: Iterable[DacapoSpec] = DACAPO_BENCHMARKS,
    schemes: Sequence[str] = SCHEMES,
) -> WindowPopulation:
    """The figure's full window space: one cell per (benchmark, seed)
    holding that seed's per-scheme window triple, stratified by
    benchmark."""
    cells = tuple(
        Cell(
            id=f"{spec.name}/seed{seed}",
            stratum=spec.name,
            specs=tuple(
                accuracy_window_spec(spec, interval, (scheme,), scale, seed)
                for scheme in schemes
            ),
            tags=(("benchmark", spec.name), ("seed", seed)),
        )
        for spec in benchmarks
        for seed in seeds
    )
    return WindowPopulation(f"accuracy-{interval}", cells)


def accuracy_figure_report(
    interval: int,
    scale: float = 0.1,
    seeds: Sequence[int] = (0,),
    benchmarks: Iterable[DacapoSpec] = DACAPO_BENCHMARKS,
    engine: Optional[ExperimentEngine] = None,
    plan: Optional[SamplingPlan] = None,
) -> AccuracyReport:
    """One row per benchmark: mean accuracy per scheme (plus the
    cross-benchmark average row, as in Figures 9/10).

    Each (benchmark, scheme, seed) cell is one engine window, fanned
    out in parallel; the reduction below is a pure function of the
    payloads.  Under a non-exhaustive plan, benchmarks whose every
    seed cell was left unrun drop out of the table and the report
    carries per-scheme accuracy estimates over the run cells.
    """
    benchmarks = list(benchmarks)
    population = accuracy_population(interval, scale, seeds, benchmarks)
    run = run_population(population, plan=plan, engine=engine)

    per_cell: Dict[str, Dict[str, float]] = {}
    for cell in run.cells:
        payloads = run.cell_payloads(cell.id)
        per_cell[cell.id] = {
            # Skipped windows (failure_policy="skip") degrade to NaN
            # cells; NaN then propagates into the average row.
            scheme: (float("nan") if is_failure(payload)
                     else payload["schemes"][scheme]["accuracy"])
            for scheme, payload in zip(SCHEMES, payloads)
        }

    rows: List[Dict[str, float]] = []
    sums = {scheme: 0.0 for scheme in SCHEMES}
    count = 0
    for spec in benchmarks:
        cell_values = [per_cell[f"{spec.name}/seed{seed}"]
                       for seed in seeds
                       if f"{spec.name}/seed{seed}" in per_cell]
        if not cell_values:
            continue  # no seed of this benchmark was selected
        row: Dict[str, float] = {"benchmark": spec.name}
        for scheme in SCHEMES:
            row[scheme] = mean([values[scheme] for values in cell_values])
            sums[scheme] += row[scheme]
        rows.append(row)
        count += 1
    average = {"benchmark": "average"}
    for scheme in SCHEMES:
        average[scheme] = sums[scheme] / count
    rows.append(average)

    sampling = None
    if not run.complete:
        estimates = {}
        for scheme in SCHEMES:
            values = [values[scheme] for values in per_cell.values()
                      if not math.isnan(values[scheme])]
            if values:
                estimates[f"{scheme} accuracy"] = estimate_mean(
                    values, population=population.size,
                    confidence=run.plan.confidence)
        sampling = SamplingSummary(
            plan=run.plan,
            windows_population=run.windows_population,
            windows_run=run.windows_run,
            cells_population=run.cells_population,
            cells_run=run.cells_run,
            estimates=estimates,
        )
    return AccuracyReport(rows=rows, sampling=sampling)


def accuracy_figure(
    interval: int,
    scale: float = 0.1,
    seeds: Sequence[int] = (0,),
    benchmarks: Iterable[DacapoSpec] = DACAPO_BENCHMARKS,
    engine: Optional[ExperimentEngine] = None,
    plan: Optional[SamplingPlan] = None,
) -> List[Dict[str, float]]:
    """The classic rows-only view of :func:`accuracy_figure_report`."""
    return accuracy_figure_report(interval, scale=scale, seeds=seeds,
                                  benchmarks=benchmarks, engine=engine,
                                  plan=plan).rows


def figure9_report(scale: float = 0.1, seeds: Sequence[int] = (0,),
                   engine: Optional[ExperimentEngine] = None,
                   plan: Optional[SamplingPlan] = None) -> AccuracyReport:
    """Figure 9: sampling accuracy at interval 2^10."""
    return accuracy_figure_report(1 << 10, scale=scale, seeds=seeds,
                                  engine=engine, plan=plan)


def figure10_report(scale: float = 0.1, seeds: Sequence[int] = (0,),
                    engine: Optional[ExperimentEngine] = None,
                    plan: Optional[SamplingPlan] = None) -> AccuracyReport:
    """Figure 10: sampling accuracy at interval 2^13."""
    return accuracy_figure_report(1 << 13, scale=scale, seeds=seeds,
                                  engine=engine, plan=plan)


def figure9(scale: float = 0.1, seeds: Sequence[int] = (0,),
            engine: Optional[ExperimentEngine] = None,
            plan: Optional[SamplingPlan] = None):
    """Figure 9: sampling accuracy at interval 2^10."""
    return figure9_report(scale=scale, seeds=seeds, engine=engine,
                          plan=plan).rows


def figure10(scale: float = 0.1, seeds: Sequence[int] = (0,),
             engine: Optional[ExperimentEngine] = None,
             plan: Optional[SamplingPlan] = None):
    """Figure 10: sampling accuracy at interval 2^13."""
    return figure10_report(scale=scale, seeds=seeds, engine=engine,
                           plan=plan).rows


def format_rows(rows: List[Dict[str, float]], title: str,
                sampling: Optional[SamplingSummary] = None) -> str:
    """Fixed-width table for bench output."""
    lines = [title, f"{'benchmark':<10} " + " ".join(f"{s:>8}" for s in SCHEMES)]
    for row in rows:
        lines.append(
            f"{row['benchmark']:<10} "
            + " ".join(f"{row[s]:8.2f}" for s in SCHEMES)
        )
    if sampling is not None:
        lines.extend(sampling.describe())
    return "\n".join(lines)
