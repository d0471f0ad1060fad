"""``repro.api`` — the stable, versioned public façade.

Everything a script needs to regenerate the paper's evaluation lives
behind this module: one keyword-only ``run_<command>()`` function per
CLI command, plus the engine types (:class:`ExperimentEngine`,
:class:`EngineConfig`, :class:`WindowSpec`, :class:`WindowFailure`).
The CLI handlers in :mod:`repro.cli` are thin wrappers over these
functions, so ``python -m repro figure9`` and
``repro.api.run_figure9()`` are provably the same code path.

Stability policy (see ``docs/api.md`` for the full contract):

* names exported in ``__all__`` follow deprecate-then-remove — at
  least one minor release emitting :class:`DeprecationWarning` before
  any breaking change;
* every ``run_*`` function takes keyword-only arguments, so adding
  parameters is never a breaking change;
* each function returns a :class:`FigureResult` whose ``data`` is the
  command's machine-readable document (what ``--json`` prints) and
  whose ``text`` is the rendered table (what the default CLI prints);
* anything *not* exported here (``repro.engine`` internals, the
  experiment modules, simulator guts) may change without notice.

Every function accepts ``engine=`` to supply a configured
:class:`ExperimentEngine`; with ``None`` the process-wide default
engine is used (configure it via :func:`set_engine` or environment
variables — see ``docs/engine.md``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from .engine import (
    EngineConfig,
    ExperimentEngine,
    IntegrityError,
    ResultCache,
    RunRecorder,
    WindowFailure,
    WindowSpec,
    format_doctor,
    get_engine,
    is_failure,
    run_windows,
    set_engine,
)
from .engine import run_doctor as _engine_run_doctor
from .engine.artifacts import shallow_asdict
from .stats import SamplingPlan

#: Default per-command scales, shared with the CLI so the two entry
#: points cannot drift: fraction of the paper's invocation counts for
#: the accuracy figures, outer-loop multiplier for Figure 12, and
#: microbenchmark characters for Figures 13/14/2.
DEFAULT_ACCURACY_SCALE = 0.05
DEFAULT_JVM_SCALE = 3.0
DEFAULT_MICRO_CHARS = 4000


@dataclass(frozen=True)
class FigureResult:
    """One command's output: machine-readable data + rendered table."""

    data: Any
    text: str


@contextlib.contextmanager
def _engine_ctx(engine: Optional[ExperimentEngine]) -> Iterator[None]:
    """Temporarily install ``engine`` as the process default, so the
    experiment code (which resolves the default engine internally)
    runs every window through it."""
    if engine is None:
        yield
        return
    from .engine import core as _core

    previous = _core._default_engine
    set_engine(engine)
    try:
        yield
    finally:
        set_engine(previous)


# ----------------------------------------------------------------------
# Sampling/seed knobs, resolved once for every figure command.


def _resolve_seed(seed: Optional[int],
                  engine: Optional[ExperimentEngine],
                  default: int) -> int:
    """The uniform experiment seed: explicit argument first, then the
    engine's ``--seed``/``REPRO_SEED`` config, then the figure's
    historical default."""
    if seed is not None:
        return int(seed)
    config_seed = (engine or get_engine()).config.seed
    if config_seed is not None:
        return int(config_seed)
    return default


def _resolve_plan(sample: Any, seed: int) -> Optional[SamplingPlan]:
    """Coerce a ``sample=`` value (plan string, :class:`SamplingPlan`
    or ``None``) into a plan seeded with the resolved seed."""
    if sample is None:
        return None
    if isinstance(sample, SamplingPlan):
        return sample
    return SamplingPlan.parse(str(sample), seed=seed)


def _sampled_data(rows: Any, sampling: Any) -> Any:
    """Exhaustive runs keep their historical document shape; sampled
    runs wrap it so the plan/CI telemetry travels with the rows."""
    if sampling is None:
        return rows
    return {"rows": rows, "sampling": sampling.to_dict()}


# ----------------------------------------------------------------------
# One façade function per CLI command.


def run_figure9(*, scale: float = DEFAULT_ACCURACY_SCALE,
                seeds: Optional[Sequence[int]] = None,
                seed: Optional[int] = None,
                sample: Any = None,
                engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """Figure 9: sampling accuracy at interval 2^10."""
    from .experiments import figure9_report, format_accuracy_rows

    resolved = _resolve_seed(seed, engine, 0)
    plan = _resolve_plan(sample, resolved)
    with _engine_ctx(engine):
        report = figure9_report(
            scale=scale, seeds=tuple(seeds) if seeds is not None
            else (resolved,), plan=plan)
    return FigureResult(
        _sampled_data(report.rows, report.sampling),
        format_accuracy_rows(report.rows,
                             f"Figure 9: accuracy at 2^10 (scale {scale})",
                             sampling=report.sampling))


def run_figure10(*, scale: float = DEFAULT_ACCURACY_SCALE,
                 seeds: Optional[Sequence[int]] = None,
                 seed: Optional[int] = None,
                 sample: Any = None,
                 engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """Figure 10: sampling accuracy at interval 2^13."""
    from .experiments import figure10_report, format_accuracy_rows

    resolved = _resolve_seed(seed, engine, 0)
    plan = _resolve_plan(sample, resolved)
    with _engine_ctx(engine):
        report = figure10_report(
            scale=scale, seeds=tuple(seeds) if seeds is not None
            else (resolved,), plan=plan)
    return FigureResult(
        _sampled_data(report.rows, report.sampling),
        format_accuracy_rows(report.rows,
                             f"Figure 10: accuracy at 2^13 (scale {scale})",
                             sampling=report.sampling))


def run_figure12(*, scale: float = DEFAULT_JVM_SCALE, interval: int = 1024,
                 seed: Optional[int] = None,
                 sample: Any = None,
                 engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """Figure 12: framework overhead on the JVM workloads."""
    from .experiments import figure12_report, format_fig12_rows

    plan = _resolve_plan(sample, _resolve_seed(seed, engine, 0))
    with _engine_ctx(engine):
        report = figure12_report(scale=scale, interval=interval, plan=plan)
    return FigureResult(
        _sampled_data([shallow_asdict(row) for row in report.rows],
                      report.sampling),
        format_fig12_rows(report.rows, sampling=report.sampling))


def _microbench_sweep(scale: int, engine: Optional[ExperimentEngine],
                      seed: Optional[int] = None, sample: Any = None):
    from .experiments import microbench_sweep

    resolved = _resolve_seed(seed, engine, 1)
    plan = _resolve_plan(sample, resolved)
    with _engine_ctx(engine):
        return microbench_sweep(n_chars=int(scale), seed=resolved, plan=plan)


def run_figure13(*, scale: int = DEFAULT_MICRO_CHARS,
                 seed: Optional[int] = None,
                 sample: Any = None,
                 engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """Figure 13: percent overhead vs. sampling interval."""
    from .experiments import format_figure13

    sweep = _microbench_sweep(scale, engine, seed, sample)
    return FigureResult(sweep.to_dict(), format_figure13(sweep))


def run_figure14(*, scale: int = DEFAULT_MICRO_CHARS,
                 seed: Optional[int] = None,
                 sample: Any = None,
                 engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """Figure 14: added cycles per dynamic sampling site."""
    from .experiments import format_figure14

    sweep = _microbench_sweep(scale, engine, seed, sample)
    return FigureResult(sweep.to_dict(), format_figure14(sweep))


def run_figure2(*, scale: int = DEFAULT_MICRO_CHARS,
                seed: Optional[int] = None,
                engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """Figure 2-style decomposition of framework overhead.

    The cost decomposition fits both curve parameters from the full
    interval sweep, so this command takes ``seed`` but not ``sample``.
    """
    from .analysis import decompose, format_decomposition
    from .experiments import microbench_sweep

    resolved = _resolve_seed(seed, engine, 1)
    with _engine_ctx(engine):
        sweep = microbench_sweep(n_chars=int(scale), seed=resolved)
        decompositions = [decompose(sweep, kind, "full-dup")
                          for kind in ("cbs", "brr")]
    text = "\n".join(format_decomposition(d) for d in decompositions)
    return FigureResult(
        [dict(shallow_asdict(d),
              rows=[shallow_asdict(row) for row in d.rows])
         for d in decompositions], text)


def run_sensitivity(*, scale: float = DEFAULT_ACCURACY_SCALE,
                    chars: int = DEFAULT_MICRO_CHARS,
                    engine: Optional[ExperimentEngine] = None
                    ) -> FigureResult:
    """Tap/bit-policy/seed-noise sensitivity plus the timing sweep."""
    from .experiments import (
        bit_policy_sensitivity,
        format_sensitivity_result,
        format_timing_sweep,
        seed_noise_baseline,
        taps_sensitivity,
        timing_config_sweep,
    )

    with _engine_ctx(engine):
        taps = taps_sensitivity(scale=scale)
        bits = bit_policy_sensitivity(scale=scale)
        noise = seed_noise_baseline(scale=scale)
        timing = timing_config_sweep(n_chars=chars)
    text = "\n".join([
        format_sensitivity_result(taps),
        format_sensitivity_result(bits),
        f"seed-variation baseline: mean={noise['mean']:.2f}% "
        f"std={noise['std']:.3f}%",
        format_timing_sweep(timing),
    ])
    return FigureResult(
        {"taps": taps.to_dict(), "bit_policy": bits.to_dict(),
         "seed_noise": noise, "timing": timing.to_dict()}, text)


def run_cost(*, engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """Section 3.3 hardware-cost table."""
    from .experiments import cost_rows, format_cost_table

    with _engine_ctx(engine):
        return FigureResult(
            [shallow_asdict(row) for row in cost_rows()],
            format_cost_table())


def run_scorecard(*, quick: bool = True,
                  engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """PASS/FAIL every headline claim; ``data["failed"]`` mirrors the
    CLI's non-zero exit condition."""
    from .experiments import format_scorecard, scorecard_failed
    from .experiments import run_scorecard as _run_scorecard

    with _engine_ctx(engine):
        results = _run_scorecard(quick=quick)
    data = {
        "claims": [result.to_dict() for result in results],
        "passed": sum(r.passed for r in results),
        "total": len(results),
        "failed": scorecard_failed(results),
    }
    return FigureResult(data, format_scorecard(results))


def run_fuzz(*, windows: int = 25, seed: Optional[int] = None,
             scheme: str = "mixed", blocks: int = 24,
             shrink: bool = True, serve_diff: bool = False,
             engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """Cross-path differential fuzzing over generated programs.

    Runs ``windows`` adversarial programs through every execution path
    (lock-step, golden replay, loop kernel, vector kernel,
    trap-emulated ``brr``) and diffs canonical stats; the two fast
    kernels share their cache and predictor passes, so those answer
    to golden replay and lock-step.  Divergences are shrunk to minimal
    programs.  ``serve_diff``
    additionally byte-compares each window served by an ephemeral
    ``repro serve`` instance against the local façade document.
    ``data["failed"]`` mirrors the CLI's non-zero exit condition.  The
    harness re-executes every path by construction, so no window cache
    is involved; ``engine`` only supplies the default seed.
    """
    from .fuzz import format_fuzz, run_differential_fuzz

    resolved = _resolve_seed(seed, engine, 0)
    report = run_differential_fuzz(windows=int(windows), seed=resolved,
                                   scheme=scheme, blocks=int(blocks),
                                   shrink=shrink, serve_diff=serve_diff)
    return FigureResult(report.to_dict(), format_fuzz(report))


def run_entropy(*, scale: int = 64, stride: int = 8,
                seed: Optional[int] = None,
                sample: Any = None,
                engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """Entropy sensitivity: predictor pollution vs. randomness density.

    ``scale`` is the measured-loop iteration count of each generated
    grid program.
    """
    from .experiments import entropy_sweep, format_entropy

    resolved = _resolve_seed(seed, engine, 0)
    plan = _resolve_plan(sample, resolved)
    with _engine_ctx(engine):
        sweep = entropy_sweep(iterations=int(scale), stride=int(stride),
                              seed=resolved, plan=plan)
    return FigureResult(sweep.to_dict(), format_entropy(sweep))


def run_doctor(*, ledgers: Sequence[str] = (), repair: bool = False,
               engine: Optional[ExperimentEngine] = None) -> FigureResult:
    """Integrity audit of both on-disk stores plus any run ledgers
    (the ``repro doctor`` command — see ``docs/integrity.md``).

    ``data["clean"]`` is True when nothing was corrupt; with ``repair``
    corrupt store entries are quarantined (their next use re-executes)
    and damaged ledgers are rewritten in place.
    """
    target = engine or get_engine()
    report = _engine_run_doctor(target.cache, target.trace_store,
                                ledgers=tuple(ledgers), repair=repair)
    return FigureResult(report, format_doctor(report))


__all__ = [
    # engine surface
    "EngineConfig",
    "ExperimentEngine",
    "IntegrityError",
    "ResultCache",
    "RunRecorder",
    "WindowFailure",
    "WindowSpec",
    "get_engine",
    "is_failure",
    "run_windows",
    "set_engine",
    # sampling surface
    "SamplingPlan",
    # command façade
    "FigureResult",
    "run_figure9",
    "run_figure10",
    "run_figure12",
    "run_figure13",
    "run_figure14",
    "run_figure2",
    "run_sensitivity",
    "run_cost",
    "run_scorecard",
    "run_fuzz",
    "run_entropy",
    "run_doctor",
    # shared defaults
    "DEFAULT_ACCURACY_SCALE",
    "DEFAULT_JVM_SCALE",
    "DEFAULT_MICRO_CHARS",
]
