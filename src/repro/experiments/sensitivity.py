"""Section 4.2 sensitivity analyses.

Two kinds of sweep live here.  The LFSR analyses vary a hardware
design choice and test its effect on *profile accuracy*; the timing
sweep varies the :class:`~repro.timing.config.TimingConfig` and
measures its effect on *cycle counts* — the canonical record-once /
replay-many workload, since every configuration shares one functional
instruction stream (``docs/trace_format.md``).

For the LFSR analyses, two design choices are varied and compared
against the noise baseline of seed variation:

1. **Tap selection** — four 32-bit configurations, two with four taps
   at (32, 31, 30, 10) and (32, 19, 18, 13) and two with six taps at
   (32, 31, 30, 29, 28, 22) and (32, 22, 16, 15, 12, 11).  The paper
   "found variation in the profile quality below the level of
   significance".
2. **AND-input selection** — contiguous vs. varied-spacing bit
   selection for the probability AND tree.

Significance is assessed exactly as the paper describes: the variation
across configurations is compared with the distribution of results
achieved from initialising the LFSR with different values (seeds),
using a one-way ANOVA across configuration groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.stats import mean, sample_std
from ..core.taps import PAPER_SENSITIVITY_TAPS_32
from ..engine import ExperimentEngine, get_engine, run_population
from ..stats import Cell, WindowPopulation
from ..timing.config import PAPER_CONFIG, TimingConfig
from ..workloads.registry import get_workload
from .accuracy import accuracy_window_spec
from .fig13 import microbench_window_spec


@dataclass
class SensitivityResult:
    """Accuracy samples per configuration plus the significance test."""

    label: str
    groups: Dict[str, List[float]]
    f_statistic: float
    p_value: float

    @property
    def significant(self) -> bool:
        """Variation beyond the seed-noise level at alpha = 0.05."""
        return self.p_value < 0.05

    def group_means(self) -> Dict[str, float]:
        return {name: sum(vals) / len(vals)
                for name, vals in self.groups.items()}

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "groups": self.groups,
            "f_statistic": self.f_statistic,
            "p_value": self.p_value,
            "significant": self.significant,
        }


def _anova(groups: Dict[str, List[float]]) -> Tuple[float, float]:
    samples = [vals for vals in groups.values() if len(vals) > 1]
    if len(samples) < 2:
        raise ValueError("need at least two groups of two samples")
    from scipy import stats as scipy_stats

    f_stat, p_value = scipy_stats.f_oneway(*samples)
    return float(f_stat), float(p_value)


def _sensitivity_population(
    name: str,
    labelled_specs: Sequence[Tuple[str, "object"]],
) -> WindowPopulation:
    """One cell per (group, replicate), stratified by group label."""
    cells = []
    counters: Dict[str, int] = {}
    for label, spec in labelled_specs:
        index = counters.get(label, 0)
        counters[label] = index + 1
        cells.append(Cell(id=f"{label}/{index}", stratum=label,
                          specs=(spec,)))
    return WindowPopulation(name, tuple(cells))


def _grouped_accuracies(
    labelled_specs: Sequence[Tuple[str, "object"]],
    engine: Optional[ExperimentEngine],
) -> Dict[str, List[float]]:
    """Fan every (group, seed) cell out through the engine at once."""
    population = _sensitivity_population("sensitivity", labelled_specs)
    run = run_population(population, engine=engine)
    groups: Dict[str, List[float]] = {}
    for cell in run.cells:
        groups.setdefault(cell.stratum, []).append(
            run.cell_payloads(cell.id)[0]["schemes"]["random"]["accuracy"])
    return groups


def taps_sensitivity(
    benchmark: str = "bloat",
    interval: int = 1 << 10,
    seeds: Sequence[int] = (0, 1, 2, 3),
    scale: float = 0.02,
    taps_sets: Sequence[Tuple[int, ...]] = PAPER_SENSITIVITY_TAPS_32,
    engine: Optional[ExperimentEngine] = None,
) -> SensitivityResult:
    """Profile accuracy across the four 32-bit tap configurations."""
    spec = get_workload(benchmark).spec
    labelled = [
        (",".join(str(t) for t in taps),
         accuracy_window_spec(spec, interval, ("random",), scale, seed,
                              lfsr_width=32, taps=taps))
        for taps in taps_sets
        for seed in seeds
    ]
    groups = _grouped_accuracies(labelled, engine)
    f_stat, p_value = _anova(groups)
    return SensitivityResult(
        label=f"taps sensitivity ({benchmark}, 1/{interval})",
        groups=groups, f_statistic=f_stat, p_value=p_value,
    )


def bit_policy_sensitivity(
    benchmark: str = "bloat",
    interval: int = 1 << 10,
    seeds: Sequence[int] = (0, 1, 2, 3),
    scale: float = 0.02,
    lfsr_width: int = 20,
    engine: Optional[ExperimentEngine] = None,
) -> SensitivityResult:
    """Contiguous vs. spaced AND-input selection."""
    spec = get_workload(benchmark).spec
    labelled = [
        (policy,
         accuracy_window_spec(spec, interval, ("random",), scale, seed,
                              lfsr_width=lfsr_width, policy=policy))
        for policy in ("contiguous", "spaced")
        for seed in seeds
    ]
    groups = _grouped_accuracies(labelled, engine)
    f_stat, p_value = _anova(groups)
    return SensitivityResult(
        label=f"AND-input sensitivity ({benchmark}, 1/{interval})",
        groups=groups, f_statistic=f_stat, p_value=p_value,
    )


def width_sensitivity(
    benchmark: str = "bloat",
    interval: int = 1 << 10,
    seeds: Sequence[int] = (0, 1, 2, 3),
    scale: float = 0.02,
    widths: Sequence[int] = (16, 20, 24, 32),
    engine: Optional[ExperimentEngine] = None,
) -> SensitivityResult:
    """Profile accuracy across LFSR register widths.

    The paper fixes 16 bits as the minimum and recommends 20; this
    companion analysis confirms the choice is free: width (beyond the
    16-bit minimum) does not measurably change profile quality, so it
    can be selected purely for AND-input spacing and hardware budget.
    """
    spec = get_workload(benchmark).spec
    labelled = [
        (f"{width}-bit",
         accuracy_window_spec(spec, interval, ("random",), scale, seed,
                              lfsr_width=width))
        for width in widths
        for seed in seeds
    ]
    groups = _grouped_accuracies(labelled, engine)
    f_stat, p_value = _anova(groups)
    return SensitivityResult(
        label=f"LFSR-width sensitivity ({benchmark}, 1/{interval})",
        groups=groups, f_statistic=f_stat, p_value=p_value,
    )


def seed_noise_baseline(
    benchmark: str = "bloat",
    interval: int = 1 << 10,
    seeds: Sequence[int] = tuple(range(8)),
    scale: float = 0.02,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, float]:
    """The seed-variation distribution everything is compared against."""
    spec = get_workload(benchmark).spec
    groups = _grouped_accuracies([
        ("seed-noise",
         accuracy_window_spec(spec, interval, ("random",), scale, seed))
        for seed in seeds
    ], engine)
    accuracies = groups["seed-noise"]
    return {
        "mean": mean(accuracies),
        "std": sample_std(accuracies),
        "min": min(accuracies),
        "max": max(accuracies),
    }


def paper_timing_ablations() -> Dict[str, TimingConfig]:
    """The standard timing-configuration ablations, keyed by name.

    Each entry perturbs one Section 5.1 machine parameter (or one
    Section 3.3 brr design rule) off the paper configuration; none of
    them can change the functional instruction stream, which is what
    makes the whole family replayable from a single recorded trace.
    """
    return {
        "paper": PAPER_CONFIG,
        "naive-brr": PAPER_CONFIG.with_overrides(
            brr_resolve_at_decode=False,
            brr_uses_predictor=True,
            brr_commits_at_decode=False,
        ),
        "shared-lfsr": PAPER_CONFIG.with_overrides(brr_shared_lfsr=True),
        "slow-l2": PAPER_CONFIG.with_overrides(l2_latency=24),
        "slow-memory": PAPER_CONFIG.with_overrides(memory_latency=300),
        "narrow-fetch": PAPER_CONFIG.with_overrides(fetch_width=1),
    }


@dataclass
class TimingSweepResult:
    """Cycle counts per timing configuration plus the functional-step
    accounting that audits record-once / replay-many."""

    label: str
    #: config name -> {"cycles", "instructions", "cpi", "total_steps"}.
    configs: Dict[str, Dict[str, float]]
    #: Functional ``Machine.step()`` calls actually paid by the sweep
    #: (0 for every window replayed from a stored trace).
    functional_steps: int
    #: What per-config lock-step re-execution would have paid: the sum
    #: of every window's full stream length.
    lockstep_steps: int

    @property
    def step_reduction(self) -> float:
        """lock-step / actual functional steps (inf on a fully warm
        sweep, which paid zero)."""
        if self.functional_steps == 0:
            return float("inf")
        return self.lockstep_steps / self.functional_steps

    def to_dict(self) -> Dict[str, object]:
        reduction = self.step_reduction
        return {
            "label": self.label,
            "configs": self.configs,
            "functional_steps": self.functional_steps,
            "lockstep_steps": self.lockstep_steps,
            "step_reduction": None if reduction == float("inf")
            else reduction,
        }


def timing_config_sweep(
    n_chars: int = 600,
    interval: int = 1 << 10,
    seed: int = 0,
    variant: str = "full-dup",
    kind: str = "brr",
    configs: Optional[Dict[str, TimingConfig]] = None,
    engine: Optional[ExperimentEngine] = None,
) -> TimingSweepResult:
    """Sweep one microbenchmark window across timing configurations.

    All windows share one functional projection — they differ only in
    ``config`` — so with the engine's trace store enabled the sweep
    records the instruction stream once and replays it per
    configuration: N configurations cost one functional execution
    instead of N (and zero when the trace is already warm).  The
    returned accounting is the sweep's delta of the engine recorder's
    ``functional_steps``, summed from the same window records written
    to the JSONL artifact.
    """
    configs = configs if configs is not None else paper_timing_ablations()
    engine = engine or get_engine()
    population = WindowPopulation("timing-config", tuple(
        Cell(
            id=name,
            stratum=name,
            specs=(microbench_window_spec(n_chars, variant, seed=seed,
                                          kind=kind, interval=interval,
                                          config=config),),
        )
        for name, config in configs.items()
    ))
    steps_before = engine.recorder.summary()["functional_steps"]
    run = run_population(population, engine=engine)

    table: Dict[str, Dict[str, float]] = {}
    lockstep_steps = 0
    for name in configs:
        result = run.cell_payloads(name)[0]["result"]
        cycles = result["stats"]["cycles"]
        instructions = result["stats"]["instructions"]
        table[name] = {
            "cycles": cycles,
            "instructions": instructions,
            "cpi": cycles / instructions if instructions else 0.0,
            "total_steps": result["total_steps"],
        }
        lockstep_steps += result["total_steps"]
    functional_steps = (engine.recorder.summary()["functional_steps"]
                        - steps_before)
    return TimingSweepResult(
        label=(f"timing-config sweep (microbench {variant}/{kind}, "
               f"{n_chars} chars, 1/{interval})"),
        configs=table,
        functional_steps=functional_steps,
        lockstep_steps=lockstep_steps,
    )


def format_timing_sweep(result: TimingSweepResult) -> str:
    lines = [result.label]
    baseline = result.configs.get("paper", {}).get("cycles")
    for name, row in result.configs.items():
        delta = ""
        if baseline and name != "paper":
            delta = f"  ({(row['cycles'] / baseline - 1) * 100:+6.2f}%)"
        lines.append(
            f"  {name:<14} {int(row['cycles']):>10} cycles  "
            f"cpi {row['cpi']:5.3f}{delta}"
        )
    reduction = result.step_reduction
    shown = "warm trace (0 paid)" if reduction == float("inf") \
        else f"{reduction:.1f}x fewer than lock-step"
    lines.append(
        f"  functional steps: {result.functional_steps} "
        f"(lock-step would pay {result.lockstep_steps}) -> {shown}"
    )
    return "\n".join(lines)


def format_result(result: SensitivityResult) -> str:
    lines = [result.label]
    for name, group_mean in result.group_means().items():
        lines.append(f"  {name:<24} mean accuracy {group_mean:6.2f}%")
    verdict = ("SIGNIFICANT (unexpected!)" if result.significant
               else "not significant (matches the paper)")
    lines.append(
        f"  ANOVA F={result.f_statistic:.3f} p={result.p_value:.3f} "
        f"-> {verdict}"
    )
    return "\n".join(lines)
