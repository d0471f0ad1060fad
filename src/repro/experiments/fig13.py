"""Figures 13 and 14 and the Section 5.3 baseline characterisation.

One sweep over the checksum microbenchmark drives both figures:

* Figure 13 — percent execution overhead vs. sampling interval for the
  eight framework combinations (cbs/brr x no-dup/full-dup x with and
  without the instrumentation payload);
* Figure 14 — average added cycles per dynamically encountered
  sampling site (Full-Duplication curves), where the paper reports
  3.19 cycles for a 50% branch-on-random, a ~0.1-cycle asymptote, and
  a 10-20x gap to counter-based sampling above interval 64.

The sweep also measures the ``full-instrumentation`` reference the
paper quotes (4.3 cycles per site on their machine) and the baseline
statistics of Section 5.3 (branch prediction accuracy, cache hit
rates).

The sweep's window space is a :class:`~repro.stats.WindowPopulation`:
two *mandatory* baseline cells (every other point normalises against
them) plus one cell per (kind, duplication, payload, interval) point,
stratified by curve.  Under a non-exhaustive
:class:`~repro.stats.SamplingPlan` only the selected interval points
run and the sweep carries a :class:`~repro.stats.SamplingSummary`
with a per-curve mean-overhead CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine import ExperimentEngine, WindowSpec, is_failure, run_population
from ..engine.artifacts import shallow_asdict
from ..stats import (
    Cell,
    SamplingPlan,
    SamplingSummary,
    WindowPopulation,
    estimate_mean,
)
from ..timing.config import TimingConfig
from ..timing.runner import WindowResult, cycles_per_site, overhead_percent

#: Interval sweep of Figure 13/14.
INTERVALS: Tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: (kind, duplication) framework combinations.
COMBOS: Tuple[Tuple[str, str], ...] = (
    ("cbs", "no-dup"),
    ("cbs", "full-dup"),
    ("brr", "no-dup"),
    ("brr", "full-dup"),
)


@dataclass
class SweepPoint:
    """One simulated configuration."""

    kind: str
    duplication: str
    interval: int
    with_payload: bool
    cycles: int
    overhead: float
    cycles_per_site: float


@dataclass
class MicrobenchSweep:
    """All Figure 13/14 series for one text/size."""

    n_chars: int
    sites: int
    base_cycles: int
    base_branch_accuracy: float
    base_l1i_hit_rate: float
    base_l1d_hit_rate: float
    full_instr_overhead: float
    full_instr_cycles_per_site: float
    points: List[SweepPoint] = field(default_factory=list)
    #: Present only when a non-exhaustive plan left interval points
    #: unrun; exhaustive sweeps keep their historical shape.
    sampling: Optional[SamplingSummary] = None

    def series(self, kind: str, duplication: str,
               with_payload: bool) -> List[SweepPoint]:
        """One Figure 13 curve, ordered by interval."""
        return sorted(
            (p for p in self.points
             if (p.kind, p.duplication, p.with_payload)
             == (kind, duplication, with_payload)),
            key=lambda p: p.interval,
        )

    def intervals_present(self) -> List[int]:
        """Every interval with at least one sampled point, ascending."""
        return sorted({p.interval for p in self.points})

    def to_dict(self) -> Dict[str, Any]:
        """Plain-scalar form for ``--json`` output.

        The ``sampling`` block appears only for sampled sweeps, so
        exhaustive JSON output is unchanged from the pre-sampling
        pipeline.
        """
        data = shallow_asdict(self)
        data["points"] = [shallow_asdict(point) for point in self.points]
        del data["sampling"]
        if self.sampling is not None:
            data["sampling"] = self.sampling.to_dict()
        return data


def microbench_window_spec(
    n_chars: int,
    variant: str,
    seed: int,
    kind: Optional[str] = None,
    interval: Optional[int] = None,
    include_payload: bool = True,
    lfsr_seed: int = 0,
    config: Optional[TimingConfig] = None,
) -> WindowSpec:
    """Declarative form of one microbenchmark timing window.

    The un-sampled variants (``none``/``full``) canonicalise the
    sampling parameters away so their cache entries are shared by
    every sweep that reuses the same baseline.
    """
    sampled = variant in ("no-dup", "full-dup")
    return WindowSpec.make(
        "microbench",
        n_chars=n_chars,
        variant=variant,
        seed=seed,
        kind=kind if sampled else None,
        interval=interval if sampled else None,
        include_payload=include_payload if sampled else None,
        lfsr_seed=lfsr_seed if sampled else 0,
        config=None if config is None else config.to_dict(),
    )


def _curve(kind: str, duplication: str, with_payload: bool) -> str:
    return f"{kind}/{duplication}/{'inst' if with_payload else 'plain'}"


def microbench_population(
    n_chars: int = 4000,
    intervals: Sequence[int] = INTERVALS,
    seed: int = 1,
    config: Optional[TimingConfig] = None,
    include_payload_variants: bool = True,
) -> WindowPopulation:
    """The sweep's full window space.

    The two baseline cells are *mandatory* — every sampling plan runs
    them, because every other point is normalised against the
    un-instrumented baseline.  Interval points form one cell each,
    stratified by curve, in the exact enumeration order of the
    pre-sampling pipeline.
    """
    payload_options = (True, False) if include_payload_variants else (False,)
    cells = [
        Cell(
            id="baseline/none",
            stratum="baseline",
            specs=(microbench_window_spec(n_chars, "none", seed,
                                          config=config),),
            mandatory=True,
        ),
        Cell(
            id="baseline/full",
            stratum="baseline",
            specs=(microbench_window_spec(n_chars, "full", seed,
                                          config=config),),
            mandatory=True,
        ),
    ]
    cells.extend(
        Cell(
            id=f"{_curve(kind, duplication, with_payload)}/{interval}",
            stratum=_curve(kind, duplication, with_payload),
            specs=(microbench_window_spec(
                n_chars, duplication, seed, kind=kind, interval=interval,
                include_payload=with_payload, lfsr_seed=interval,
                config=config),),
            tags=(("kind", kind), ("duplication", duplication),
                  ("with_payload", with_payload), ("interval", interval)),
        )
        for kind, duplication in COMBOS
        for with_payload in payload_options
        for interval in intervals
    )
    return WindowPopulation("microbench", tuple(cells))


def microbench_sweep(
    n_chars: int = 4000,
    intervals: Sequence[int] = INTERVALS,
    seed: int = 1,
    config: Optional[TimingConfig] = None,
    include_payload_variants: bool = True,
    engine: Optional[ExperimentEngine] = None,
    plan: Optional[SamplingPlan] = None,
) -> MicrobenchSweep:
    """Run the whole Figure 13/14 sweep at one scale.

    Every point — the baseline, the full-instrumentation reference and
    each (kind, duplication, payload, interval) combination — is an
    independent engine window; the sweep object is a pure reduction of
    the returned payloads.  A non-exhaustive ``plan`` runs the two
    mandatory baselines plus a stratified per-curve subset of interval
    points and attaches the estimator summary.
    """
    population = microbench_population(
        n_chars, intervals, seed, config, include_payload_variants)
    run = run_population(population, plan=plan, engine=engine)

    base_payload = run.cell_payloads("baseline/none")[0]
    full_payload = run.cell_payloads("baseline/full")[0]
    if is_failure(base_payload) or is_failure(full_payload):
        # Every other point is normalised against the baseline, so a
        # skipped baseline/full window leaves nothing to reduce.
        raise RuntimeError(
            "microbench baseline window was skipped after repeated "
            "failures; re-run with failure_policy='retry' or 'raise'")
    base = WindowResult.from_dict(base_payload["result"])
    sites = base_payload["sites"]
    full = WindowResult.from_dict(full_payload["result"])

    sweep = MicrobenchSweep(
        n_chars=n_chars,
        sites=sites,
        base_cycles=base.cycles,
        base_branch_accuracy=base.stats.branch_accuracy,
        base_l1i_hit_rate=1.0 - (base.stats.icache_misses
                                 / max(1, base.instructions)),
        base_l1d_hit_rate=1.0 - (base.stats.dcache_misses
                                 / max(1, base.stats.loads + base.stats.stores)),
        full_instr_overhead=overhead_percent(base.cycles, full.cycles),
        full_instr_cycles_per_site=cycles_per_site(base.cycles, full.cycles,
                                                   sites),
    )
    for cell in run.cells:
        if cell.stratum == "baseline":
            continue
        payload = run.cell_payloads(cell.id)[0]
        kind = cell.tag("kind")
        duplication = cell.tag("duplication")
        with_payload = cell.tag("with_payload")
        interval = cell.tag("interval")
        if is_failure(payload):
            # A skipped sweep point degrades to a NaN cell instead of
            # aborting the whole figure (failure_policy="skip").
            sweep.points.append(SweepPoint(
                kind=kind, duplication=duplication, interval=interval,
                with_payload=with_payload, cycles=-1,
                overhead=float("nan"), cycles_per_site=float("nan")))
            continue
        cycles = payload["cycles"]
        sweep.points.append(SweepPoint(
            kind=kind,
            duplication=duplication,
            interval=interval,
            with_payload=with_payload,
            cycles=cycles,
            overhead=overhead_percent(base.cycles, cycles),
            cycles_per_site=cycles_per_site(base.cycles, cycles, sites),
        ))

    if not run.complete:
        payload_options = ((True, False) if include_payload_variants
                           else (False,))
        estimates = {}
        for kind, duplication in COMBOS:
            for with_payload in payload_options:
                overheads = [
                    p.overhead
                    for p in sweep.series(kind, duplication, with_payload)
                    if not math.isnan(p.overhead)
                ]
                if overheads:
                    name = _curve(kind, duplication, with_payload)
                    estimates[f"{name} overhead %"] = estimate_mean(
                        overheads, population=len(intervals),
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


def sampling_payoff_interval(sweep: MicrobenchSweep, kind: str,
                             duplication: str) -> Optional[int]:
    """The smallest interval at which sampled instrumentation costs
    less than unsampled full instrumentation.

    This is Figure 2's narrative made operational: sampling pays off
    once the (fixed + variable) framework cost drops below the full
    instrumentation cost it replaces.  Returns ``None`` if sampling
    never wins in the sweep's range (which is counter-based sampling's
    problem at high fixed cost).
    """
    for point in sweep.series(kind, duplication, with_payload=True):
        if point.overhead < sweep.full_instr_overhead:
            return point.interval
    return None


def _table_cell(series: List[SweepPoint], interval: int,
                fmt: str, width: int) -> str:
    for point in series:
        if point.interval == interval:
            return format(getattr(point, fmt), f"{width}.2f") \
                if fmt == "overhead" \
                else format(point.cycles_per_site, f"{width}.3f")
    return format("-", f">{width}")


def format_figure13(sweep: MicrobenchSweep) -> str:
    """Figure 13's eight curves as a fixed-width table.

    Exhaustive sweeps render the historical full-interval table;
    sampled sweeps show only the intervals that ran (missing cells as
    ``-``) plus the estimator footer.
    """
    if sweep.sampling is None:
        columns: Sequence[int] = INTERVALS
    else:
        columns = sweep.intervals_present()
    lines = [
        f"Figure 13: % overhead vs. interval "
        f"({sweep.n_chars} chars, {sweep.sites} sites, "
        f"baseline {sweep.base_cycles} cycles)",
        "curve" + " " * 21 + " ".join(f"{iv:>7}" for iv in columns),
    ]
    for kind, dup in COMBOS:
        for payload in (True, False):
            series = sweep.series(kind, dup, payload)
            if not series:
                continue
            label = f"{kind} {'+inst' if payload else '     '} ({dup})"
            if sweep.sampling is None:
                lines.append(
                    f"{label:<26}" + " ".join(f"{p.overhead:7.2f}" for p in series)
                )
            else:
                lines.append(
                    f"{label:<26}"
                    + " ".join(_table_cell(series, iv, "overhead", 7)
                               for iv in columns)
                )
    if sweep.sampling is not None:
        lines.extend(sweep.sampling.describe())
    return "\n".join(lines)


def format_figure14(sweep: MicrobenchSweep) -> str:
    """Figure 14: cycles per site (Full-Duplication curves)."""
    if sweep.sampling is None:
        columns: Sequence[int] = INTERVALS
    else:
        columns = sweep.intervals_present()
    lines = [
        "Figure 14: average cycles per sampling site (Full-Duplication)",
        f"(full-instrumentation reference: "
        f"{sweep.full_instr_cycles_per_site:.2f} cycles/site)",
        "curve" + " " * 16 + " ".join(f"{iv:>7}" for iv in columns),
    ]
    for kind in ("cbs", "brr"):
        for payload in (True, False):
            series = sweep.series(kind, "full-dup", payload)
            if not series:
                continue
            label = f"{kind}{' + inst' if payload else '       '}"
            if sweep.sampling is None:
                lines.append(
                    f"{label:<21}"
                    + " ".join(f"{p.cycles_per_site:7.3f}" for p in series)
                )
            else:
                lines.append(
                    f"{label:<21}"
                    + " ".join(_table_cell(series, iv, "cycles_per_site", 7)
                               for iv in columns)
                )
    if sweep.sampling is not None:
        lines.extend(sweep.sampling.describe())
    return "\n".join(lines)
