"""Window runners: the pure compute behind each :class:`WindowSpec`.

Each runner maps spec parameter dicts to JSON-able result payloads;
every payload must be a *pure function* of its parameters — every
source of randomness (workload RNG seed, LFSR initialisation) is an
explicit parameter, which is what makes results cacheable and safe to
fan out across processes.  Runners put ``cycles``/``instructions`` at
the payload's top level when they have them so the engine can log them
in the run artifact without knowing each payload's shape.

Imports of workload/experiment modules happen inside the runners so
this module stays importable from pool workers without dragging the
whole package (or creating import cycles with ``repro.experiments``).
"""

from __future__ import annotations

import functools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from .tracestore import TraceStore

#: One executed window: its JSON-able payload plus the out-of-band
#: trace/timing telemetry the engine logs (``None`` for untimed kinds).
#: The telemetry is deliberately *not* part of the payload, so cached
#: results stay byte-identical regardless of trace hit/miss history.
Outcome = Tuple[Dict[str, Any], Optional[Dict[str, Any]]]

#: A runner takes one or more windows that share a functional key plus
#: the trace store (``None`` or disabled: record in memory) and returns
#: one :data:`Outcome` per window, in order.
Runner = Callable[[Sequence[Dict[str, Any]], Optional["TraceStore"]],
                  List[Outcome]]


def _runner(kind: str) -> Runner:
    try:
        return REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown window kind {kind!r}") from None


def run_window(kind: str, params: Dict[str, Any],
               store: Optional[TraceStore]) -> Outcome:
    """Execute one window against ``store``."""
    return _runner(kind)([params], store)[0]


def run_window_group(kind: str, params_list: Sequence[Dict[str, Any]],
                     store: Optional[TraceStore]) -> List[Outcome]:
    """Execute windows that share one functional key (they differ only
    in timing config) against ``store``: the materials are built and
    the trace is loaded or recorded once for the whole group."""
    return _runner(kind)(params_list, store)


def _tuple_or_none(value):
    return None if value is None else tuple(value)


def _config_from(params: Dict[str, Any]):
    from ..timing.config import TimingConfig

    config = params.get("config")
    return None if config is None else TimingConfig.from_dict(config)


def _timed_windows(kind: str, params_list: Sequence[Dict[str, Any]],
                   store: Optional[TraceStore]) -> List[Outcome]:
    """Execute timing windows of one functional stream, record-once /
    replay-many.

    The store is keyed by the spec's *functional projection* (``config``
    excluded — see :mod:`repro.engine.tracestore`), so every timing
    configuration of the same program/seed/markers shares a single
    recorded functional stream: the first execution records it (N
    functional ``Machine.step()`` calls), every later one replays it
    (zero).  Without an enabled store the stream is recorded in memory
    and replayed the same way.  Each window replays on its own, so its
    telemetry names its own kernel, route and throughput.
    """
    from ..timing.runner import (
        consume_replay_info,
        record_window,
        replay_window,
    )
    from .tracestore import functional_key

    materials = MATERIALS[kind](params_list[0])
    program = materials["program"]

    def record(path):
        return record_window(program, materials["end"],
                             brr_unit=materials["brr_unit"],
                             setup=materials["setup"], path=path)

    if store is None or not store.enabled:
        trace = record(None)
        usage, trace_bytes = "off", None
    else:
        key = functional_key(kind, params_list[0])
        trace = store.load(key)
        usage = "hit" if trace is not None else "miss"
        if trace is None:
            trace = store.record(key, record)
        trace_bytes = trace.nbytes
    functional_steps = 0 if usage == "hit" else len(trace)
    outcomes: List[Outcome] = []
    for params in params_list:
        result = replay_window(trace, materials["begin"], materials["end"],
                               config=_config_from(params),
                               fast_forward=materials["fast_forward"],
                               program=program)
        replay_info = consume_replay_info() or {}
        info = {
            "trace": usage,
            "trace_bytes": trace_bytes,
            "functional_steps": functional_steps,
            "timing_path": replay_info.get("timing_path"),
            "timing_kernel": replay_info.get("timing_kernel"),
            "timing_route": replay_info.get("timing_route"),
            "replay_records_per_s": replay_info.get("replay_records_per_s"),
        }
        for field in ("validation", "validation_policy",
                      "validation_mismatches"):
            if field in replay_info:
                info[field] = replay_info[field]
        payload = {"result": result.to_dict(), **materials["extra"],
                   "cycles": result.cycles,
                   "instructions": result.instructions}
        outcomes.append((payload, info))
        # Later members replay the trace the first one loaded/recorded.
        usage = "hit" if usage == "miss" else usage
        functional_steps = 0
    return outcomes


def _accuracy_windows(params_list: Sequence[Dict[str, Any]],
                      store: Optional[TraceStore]) -> List[Outcome]:
    """Profiling-accuracy cells, one at a time (untimed: no trace, no
    telemetry)."""
    return [(_accuracy_payload(params), None) for params in params_list]


def _accuracy_payload(params: Dict[str, Any]) -> Dict[str, Any]:
    """One (benchmark, schemes, interval, seed) profiling-accuracy cell.

    The benchmark's full shape parameters ride in the spec (not just a
    name) so the cache key covers the workload generator's inputs.
    """
    from ..experiments.accuracy import run_accuracy
    from ..workloads.dacapo import DacapoSpec

    spec = DacapoSpec(**params["benchmark"])
    results = run_accuracy(
        spec,
        interval=params["interval"],
        schemes=tuple(params["schemes"]),
        scale=params["scale"],
        seed=params["seed"],
        lfsr_width=params.get("lfsr_width", 16),
        taps=_tuple_or_none(params.get("taps")),
        policy=params.get("policy", "spaced"),
    )
    events = next(iter(results.values())).events if results else 0
    return {
        "schemes": {
            scheme: {"accuracy": r.accuracy, "samples": r.samples}
            for scheme, r in results.items()
        },
        "events": events,
        "instructions": events,
        "cycles": None,
    }


def microbench_materials(params: Dict[str, Any]) -> Dict[str, Any]:
    """Build the runnable pieces of a microbench window — program,
    marker points, setup, brr unit — without timing it.  Shared by the
    timed runner above and by harnesses (``repro bench``) that need to
    drive the timing layer directly."""
    from ..core.brr import BranchOnRandomUnit
    from ..workloads.microbench import END_MARKER, WARM_MARKER
    from ..workloads.registry import get_workload

    bench = get_workload(
        "microbench",
        n_chars=params["n_chars"],
        variant=params["variant"],
        kind=params.get("kind") or "cbs",
        interval=params.get("interval") or 1024,
        include_payload=params.get("include_payload", True),
        seed=params["seed"],
    ).raw
    unit = None
    if bench.variant.startswith("brr"):
        from ..core.lfsr import Lfsr

        seed = (0xACE1 + params.get("lfsr_seed", 0) * 7919) & 0xFFFFF or 1
        unit = BranchOnRandomUnit(Lfsr(20, seed=seed))
    return {
        "program": bench.program,
        "begin": (WARM_MARKER, 1),
        "end": (END_MARKER, 1),
        "setup": bench.load_text,
        "brr_unit": unit,
        "fast_forward": None,
        "extra": {
            "sites": bench.measured_sites,
            "program_words": len(bench.program.words),
        },
    }


def jvm_materials(params: Dict[str, Any]) -> Dict[str, Any]:
    """Build the runnable pieces of a Figure-12 JVM window without
    timing it (see :func:`microbench_materials`)."""
    from ..core.brr import BranchOnRandomUnit
    from ..jvm.benchmarks import FIGURE12_BENCHMARKS, MEASURE_BEGIN, MEASURE_END
    from ..jvm.compiler import compile_program

    jvm = FIGURE12_BENCHMARKS[params["benchmark"]](params["scale"])
    variant = params["variant"]
    if variant == "none":
        compiled = compile_program(jvm, variant="none")
        unit = None
    else:
        compiled = compile_program(
            jvm, variant="full-dup", kind=variant,
            interval=params["interval"],
        )
        unit = BranchOnRandomUnit() if variant == "brr" else None
    return {
        "program": compiled.program,
        "begin": (MEASURE_BEGIN, 1),
        "end": (MEASURE_END, 1),
        "setup": None,
        "brr_unit": unit,
        "fast_forward": None,
        "extra": {"program_words": len(compiled.program.words)},
    }


def adversarial_materials(params: Dict[str, Any]) -> Dict[str, Any]:
    """Build the runnable pieces of an adversarial window (see
    :func:`microbench_materials`).  The generated program's entire
    shape rides in the spec — density, stride, loop shape, stressors —
    so the cache key covers every generator input."""
    from ..workloads.adversarial import END_MARKER, MEASURE_MARKER
    from ..workloads.registry import get_workload

    adversarial = get_workload(
        "adversarial",
        scheme=params["scheme"],
        density=params["density"],
        stride=params.get("stride", 8),
        loop_shape=tuple(params.get("loop_shape") or (1,)),
        history_stress=params.get("history_stress", 0),
        call_depth=params.get("call_depth", 0),
        blocks=params.get("blocks", 24),
        seed=params["seed"],
    ).raw
    unit = (adversarial.brr_unit(params.get("lfsr_seed", 0))
            if adversarial.uses_brr else None)
    return {
        "program": adversarial.program(),
        "begin": (MEASURE_MARKER, 1),
        "end": (END_MARKER, 1),
        "setup": adversarial.setup,
        "brr_unit": unit,
        "fast_forward": None,
        "extra": {
            "program_words": len(adversarial.program().words),
            "pool_bytes": len(adversarial.pool),
        },
    }


#: Materials builders by spec kind: the timed runner's, and those of
#: harnesses that drive the timing layer directly (``repro bench``).
MATERIALS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "microbench": microbench_materials,
    "jvm": jvm_materials,
    "adversarial": adversarial_materials,
}


#: Runners by spec kind.  The timed kinds share one runner; it reads
#: its builder from :data:`MATERIALS` at call time.
REGISTRY: Dict[str, Runner] = {
    "accuracy": _accuracy_windows,
    **{kind: functools.partial(_timed_windows, kind) for kind in MATERIALS},
}
