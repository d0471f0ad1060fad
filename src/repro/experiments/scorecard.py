"""The reproduction scorecard: every headline claim, one verdict each.

Runs a compact version of the whole evaluation and grades the paper's
load-bearing claims PASS/FAIL.  This is the one-command answer to "did
the reproduction work?" — `python -m repro scorecard`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Tuple


@dataclass
class ClaimResult:
    claim: str
    passed: bool
    detail: str
    seconds: float

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def _check_figure6() -> Tuple[bool, str]:
    from ..core.lfsr import Lfsr
    from ..core.taps import FIGURE6_TAPS

    expected = [0b0001, 0b1000, 0b0100, 0b0010, 0b1001, 0b1100, 0b0110,
                0b1011, 0b0101, 0b1010, 0b1101, 0b1110, 0b1111, 0b0111,
                0b0011]
    got = list(Lfsr(4, taps=FIGURE6_TAPS, seed=1).sequence(15))
    return got == expected, "bit-exact Figure 6 sequence"


def _check_frequency_encoding() -> Tuple[bool, str]:
    from ..core.brr import BranchOnRandomUnit, measured_probability
    from ..core.condition import probability_of_field

    field = 3  # 1/16
    measured = measured_probability(BranchOnRandomUnit(), field, 1 << 15)
    expected = probability_of_field(field)
    ok = abs(measured - expected) < 0.2 * expected
    return ok, f"field {field}: measured {measured:.4f} vs {expected:.4f}"


def _check_hardware_cost() -> Tuple[bool, str]:
    from ..core.cost import claims_hold, paper_design_points

    single, wide = paper_design_points()
    return claims_hold(), (
        f"single-issue {single.state_bits}b/{single.gates_macro}g, "
        f"4-wide {wide.state_bits}b/{wide.gates_macro}g"
    )


def _check_accuracy_resonance(scale: float) -> Tuple[bool, str]:
    from ..engine import is_failure, run_windows
    from ..workloads.registry import get_workload
    from .accuracy import SCHEMES, accuracy_window_spec

    spec = accuracy_window_spec(get_workload("jython").spec, 1 << 10, SCHEMES,
                                scale, seed=0)
    payload = run_windows([spec])[0]
    if is_failure(payload):
        return False, f"window skipped after failures: {payload.error}"
    result = payload["schemes"]
    gap = result["random"]["accuracy"] - max(result["sw"]["accuracy"],
                                             result["hw"]["accuracy"])
    return gap > 3.0, (
        f"jython: random {result['random']['accuracy']:.1f}% vs counters "
        f"{result['sw']['accuracy']:.1f}/{result['hw']['accuracy']:.1f}% "
        f"(gap {gap:+.1f}, paper ~+7)"
    )


def _check_trap_equivalence() -> Tuple[bool, str]:
    from ..core.brr import BranchOnRandomUnit
    from ..core.lfsr import Lfsr
    from ..isa.asm import assemble
    from ..sim.machine import Machine
    from ..sim.trap import BrrTrapEmulator

    source = """
        li r1, 512
        li r2, 0
    loop:
        brr 1/4, hit
    back:
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    hit:
        addi r2, r2, 1
        jmp back
    """
    native = Machine(assemble(source),
                     brr_unit=BranchOnRandomUnit(Lfsr(20, seed=42)))
    native.run(max_steps=100_000)
    trapped = Machine(assemble(source, brr_mode="trap"))
    BrrTrapEmulator(unit=BranchOnRandomUnit(Lfsr(20, seed=42))).install(trapped)
    trapped.run(max_steps=100_000)
    ok = native.regs[2] == trapped.regs[2]
    return ok, f"native {native.regs[2]} == emulated {trapped.regs[2]} samples"


def _check_per_site_gap(n_chars: int) -> Tuple[bool, str]:
    from .fig13 import microbench_sweep

    sweep = microbench_sweep(n_chars=n_chars, intervals=(1024,),
                             include_payload_variants=False)
    cbs = sweep.series("cbs", "full-dup", False)[0].cycles_per_site
    brr = sweep.series("brr", "full-dup", False)[0].cycles_per_site
    ratio = cbs / max(1e-9, brr)
    ok = ratio >= 8.0 and brr < 0.35
    return ok, (
        f"full-dup @1024: cbs {cbs:.3f} vs brr {brr:.3f} cycles/site "
        f"({ratio:.1f}x; paper: 10-20x, brr ~0.1)"
    )


def _check_jvm_overhead(scale: float) -> Tuple[bool, str]:
    from .fig12 import figure12

    rows = figure12(scale=scale)
    average = rows[-1]
    ok = (2.0 <= average.cbs_overhead <= 12.0
          and average.brr_overhead < average.cbs_overhead / 2)
    return ok, (
        f"JVM avg: cbs {average.cbs_overhead:.2f}% vs brr "
        f"{average.brr_overhead:.2f}% (paper: ~5% vs 0.64%)"
    )


def _check_sampled_estimation(n_chars: int) -> Tuple[bool, str]:
    from ..stats import SamplingPlan
    from .fig13 import microbench_population, microbench_sweep

    intervals = (8, 64, 512)
    exhaustive = microbench_sweep(n_chars=n_chars, intervals=intervals,
                                  include_payload_variants=False)
    plan = SamplingPlan(mode="fraction", fraction=0.5, seed=0)
    sampled = microbench_sweep(n_chars=n_chars, intervals=intervals,
                               include_payload_variants=False, plan=plan)
    population = microbench_population(n_chars=n_chars, intervals=intervals,
                                       include_payload_variants=False)
    if sampled.sampling is None:
        return False, "sampled sweep carried no sampling summary"
    summary = sampled.sampling
    if summary.windows_run >= population.n_windows:
        return False, (f"plan ran all {summary.windows_run} windows; "
                       "nothing was actually sampled")
    exact = {(p.kind, p.duplication, p.with_payload, p.interval): p.overhead
             for p in exhaustive.points}
    for point in sampled.points:
        key = (point.kind, point.duplication, point.with_payload,
               point.interval)
        if point.overhead != exact[key]:
            return False, f"sampled point {key} diverged from exhaustive"
    covered = 0
    for (kind, duplication) in (("cbs", "no-dup"), ("cbs", "full-dup"),
                                ("brr", "no-dup"), ("brr", "full-dup")):
        name = f"{kind}/{duplication}/plain overhead %"
        estimate = summary.estimates.get(name)
        series = exhaustive.series(kind, duplication, False)
        true_mean = sum(p.overhead for p in series) / len(series)
        if estimate is None or not estimate.covers(true_mean):
            return False, f"{name} CI missed exhaustive mean {true_mean:.2f}"
        covered += 1
    return True, (
        f"fraction:0.5 ran {summary.windows_run}/{population.n_windows} "
        f"windows; all sampled points exact, {covered}/4 curve CIs cover "
        "the exhaustive means"
    )


#: A scorecard check: (claim text, callable returning (passed, detail)).
Check = Tuple[str, Callable[[], Tuple[bool, str]]]


def default_checks(quick: bool = True) -> List[Check]:
    """Every headline claim at ``quick`` or full evaluation scale."""
    accuracy_scale = 0.01 if quick else 0.05
    fig12_scale = 2.0 if quick else 3.0
    n_chars = 2500 if quick else 4000
    return [
        ("Figure 6: LFSR walks the published sequence", _check_figure6),
        ("§3.2: brr frequency converges to (1/2)^(f+1)",
         _check_frequency_encoding),
        ("§3.3: 20 bits/<100 gates; <100 bits/<400 gates (4-wide)",
         _check_hardware_cost),
        ("§4.1: SIGILL emulation is exactly equivalent to native brr",
         _check_trap_equivalence),
        ("Figures 9/10: brr avoids the counters' jython resonance",
         lambda: _check_accuracy_resonance(accuracy_scale)),
        ("Figure 14: order-of-magnitude per-site gap, ~0.1 cycle floor",
         lambda: _check_per_site_gap(n_chars)),
        ("Figure 12: brr far below counter-based on the JVM workloads",
         lambda: _check_jvm_overhead(fig12_scale)),
        ("Sampled estimation: planned subsets reproduce exhaustive "
         "figures within their CIs",
         lambda: _check_sampled_estimation(n_chars=1200 if quick else 2500)),
    ]


def run_scorecard(quick: bool = True,
                  checks: "List[Check] | None" = None) -> List[ClaimResult]:
    """Run all claims; ``quick`` trades precision for ~1 minute total.

    ``checks`` substitutes a custom claim list — used by the tests to
    grade deliberately broken configurations.
    """
    if checks is None:
        checks = default_checks(quick)
    results = []
    for claim, check in checks:
        started = time.time()
        try:
            passed, detail = check()
        except Exception as exc:  # a crash is a failed claim
            passed, detail = False, f"crashed: {exc!r}"
        results.append(ClaimResult(claim, passed, detail,
                                   time.time() - started))
    return results


def scorecard_failed(results: List[ClaimResult]) -> bool:
    """True when any headline claim failed — the CLI turns this into a
    non-zero exit code so CI can gate on the scorecard."""
    return any(not result.passed for result in results)


def format_scorecard(results: List[ClaimResult]) -> str:
    lines = ["Branch-on-Random reproduction scorecard",
             "=" * 62]
    for result in results:
        verdict = "PASS" if result.passed else "FAIL"
        lines.append(f"[{verdict}] {result.claim}")
        lines.append(f"       {result.detail}  ({result.seconds:.1f}s)")
    passed = sum(r.passed for r in results)
    lines.append("=" * 62)
    lines.append(f"{passed}/{len(results)} claims reproduced")
    return "\n".join(lines)
