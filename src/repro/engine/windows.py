"""Window runners: the pure compute behind each :class:`WindowSpec`.

Each runner maps a spec's parameter dict to a JSON-able result payload
and must be a *pure function* of those parameters — every source of
randomness (workload RNG seed, LFSR initialisation) is an explicit
parameter, which is what makes results cacheable and safe to fan out
across processes.  Runners put ``cycles``/``instructions`` at the
payload's top level when they have them so the engine can log them in
the run artifact without knowing each payload's shape.

Imports of workload/experiment modules happen inside the runners so
this module stays importable from pool workers without dragging the
whole package (or creating import cycles with ``repro.experiments``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Runner = Callable[[Dict[str, Any]], Dict[str, Any]]

REGISTRY: Dict[str, Runner] = {}


def window_kind(name: str) -> Callable[[Runner], Runner]:
    """Register a runner under a spec ``kind``."""
    def register(fn: Runner) -> Runner:
        REGISTRY[name] = fn
        return fn
    return register


def run_window(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one window to its registered runner."""
    try:
        runner = REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown window kind {kind!r}") from None
    return runner(params)


def _tuple_or_none(value):
    return None if value is None else tuple(value)


def _config_from(params: Dict[str, Any]):
    from ..timing.config import TimingConfig

    config = params.get("config")
    return None if config is None else TimingConfig.from_dict(config)


def _timed_window(
    kind: str,
    params: Dict[str, Any],
    program,
    begin: Tuple[int, int],
    end: Tuple[int, int],
    setup=None,
    brr_unit=None,
    fast_forward: Optional[Tuple[int, int]] = None,
):
    """Execute one marker-delimited timing window, record-once /
    replay-many.

    The store is keyed by the spec's *functional projection* (``config``
    excluded — see :mod:`repro.engine.tracestore`), so every timing
    configuration of the same program/seed/markers shares a single
    recorded functional stream: the first execution records it (N
    functional ``Machine.step()`` calls), every later one replays it
    (zero).  Without an active store the window is recorded in memory
    and replayed the same way.  Per-window trace telemetry (hit/miss,
    encoded bytes, functional steps) is left for the engine via
    :func:`~repro.engine.tracestore.consume_trace_info`.
    """
    from ..timing.runner import (
        consume_replay_info,
        record_window,
        replay_window,
    )
    from .tracestore import (
        functional_key,
        get_active_store,
        set_last_trace_info,
    )

    def record(path):
        return record_window(program, end, brr_unit=brr_unit, setup=setup,
                             path=path)

    store = get_active_store()
    if store is None or not store.enabled:
        trace = record(None)
        usage, trace_bytes, functional_steps = "off", None, len(trace)
    else:
        key = functional_key(kind, params)
        trace = store.load(key)
        if trace is None:
            trace = store.record(key, record)
            usage, functional_steps = "miss", len(trace)
        else:
            usage, functional_steps = "hit", 0
        trace_bytes = trace.nbytes
    result = replay_window(trace, begin, end, config=_config_from(params),
                           fast_forward=fast_forward, program=program)
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
    set_last_trace_info(info)
    return result


@window_kind("accuracy")
def _accuracy_window(params: Dict[str, Any]) -> Dict[str, Any]:
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
    runner below and by harnesses (``repro bench``) that need to drive
    the timing layer directly."""
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


@window_kind("microbench")
def _microbench_window(params: Dict[str, Any]) -> Dict[str, Any]:
    """One timed window of the Section 5.3 checksum microbenchmark."""
    materials = microbench_materials(params)
    result = _timed_window(
        "microbench", params, materials["program"],
        begin=materials["begin"],
        end=materials["end"],
        setup=materials["setup"],
        brr_unit=materials["brr_unit"],
    )
    return {
        "result": result.to_dict(),
        "sites": materials["extra"]["sites"],
        "program_words": materials["extra"]["program_words"],
        "cycles": result.cycles,
        "instructions": result.instructions,
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


@window_kind("adversarial")
def _adversarial_window(params: Dict[str, Any]) -> Dict[str, Any]:
    """One timed window of a generated adversarial program."""
    materials = adversarial_materials(params)
    result = _timed_window(
        "adversarial", params, materials["program"],
        begin=materials["begin"],
        end=materials["end"],
        setup=materials["setup"],
        brr_unit=materials["brr_unit"],
    )
    return {
        "result": result.to_dict(),
        "program_words": materials["extra"]["program_words"],
        "pool_bytes": materials["extra"]["pool_bytes"],
        "cycles": result.cycles,
        "instructions": result.instructions,
    }


#: Materials builders by spec kind, for harnesses that drive the
#: timing layer directly (``repro bench``).
MATERIALS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "microbench": microbench_materials,
    "jvm": jvm_materials,
    "adversarial": adversarial_materials,
}


# ----------------------------------------------------------------------
# Batched execution: all timing configs of ONE functional window in a
# single replay_window_batch call.  The serial engine groups cache
# misses by functional key and routes groups of two or more here, so
# the per-trace work (columnar decode, word tables, the vector
# kernel's memoised event passes) is paid once per trace instead of
# once per window.  Results are byte-identical to the per-window
# runners — batching only changes the amortisation.


def _timed_window_group(
    kind: str,
    params_list: Sequence[Dict[str, Any]],
    materials: Dict[str, Any],
) -> Optional[List[Tuple[Any, Dict[str, Any]]]]:
    """Replay every config of one functional window as a batch.

    Returns ``[(WindowResult, trace_info), ...]`` in ``params_list``
    order, or ``None`` when no trace store is active (the caller falls
    back to per-window execution).  The aggregate batch telemetry from
    :func:`~repro.timing.runner.replay_window_batch` is attached to
    every window of the group.
    """
    from ..timing.runner import (
        consume_replay_info,
        record_window,
        replay_window_batch,
    )
    from .tracestore import functional_key, get_active_store

    store = get_active_store()
    if store is None or not store.enabled:
        return None
    key = functional_key(kind, params_list[0])
    trace = store.load(key)
    if trace is None:
        trace = store.record(key, lambda path: record_window(
            materials["program"], materials["end"],
            brr_unit=materials["brr_unit"], setup=materials["setup"],
            path=path))
        usage, functional_steps = "miss", len(trace)
    else:
        usage, functional_steps = "hit", 0
    windows = [{
        "begin": materials["begin"],
        "end": materials["end"],
        "config": _config_from(params),
        "fast_forward": materials["fast_forward"],
    } for params in params_list]
    results = replay_window_batch(trace, windows,
                                  program=materials["program"])
    replay_info = consume_replay_info() or {}
    batch = []
    for position, result in enumerate(results):
        info: Dict[str, Any] = {
            "trace": usage if position == 0 else "hit",
            "trace_bytes": trace.nbytes,
            "functional_steps": functional_steps if position == 0 else 0,
            "timing_path": replay_info.get("timing_path"),
            "timing_kernel": replay_info["window_kernels"][position],
            "timing_route": replay_info["window_routes"][position],
            "replay_records_per_s": replay_info.get("replay_records_per_s"),
            "batch_windows": replay_info.get("batch_windows"),
        }
        for field in ("validation", "validation_policy",
                      "validation_mismatches"):
            if field in replay_info:
                info[field] = replay_info[field]
        batch.append((result, info))
    return batch


def _group_runner(kind: str, materials_fn, shape):
    """A group runner from a materials builder plus the kind's
    result-to-payload shaping (must mirror the per-window runner)."""
    def run(params_list: Sequence[Dict[str, Any]]
            ) -> Optional[List[Tuple[Dict[str, Any], Dict[str, Any]]]]:
        materials = materials_fn(params_list[0])
        batch = _timed_window_group(kind, params_list, materials)
        if batch is None:
            return None
        return [(shape(result, materials), info) for result, info in batch]
    return run


def _microbench_payload(result, materials) -> Dict[str, Any]:
    return {
        "result": result.to_dict(),
        "sites": materials["extra"]["sites"],
        "program_words": materials["extra"]["program_words"],
        "cycles": result.cycles,
        "instructions": result.instructions,
    }


def _jvm_payload(result, materials) -> Dict[str, Any]:
    return {
        "result": result.to_dict(),
        "program_words": materials["extra"]["program_words"],
        "cycles": result.cycles,
        "instructions": result.instructions,
    }


def _adversarial_payload(result, materials) -> Dict[str, Any]:
    return {
        "result": result.to_dict(),
        "program_words": materials["extra"]["program_words"],
        "pool_bytes": materials["extra"]["pool_bytes"],
        "cycles": result.cycles,
        "instructions": result.instructions,
    }


#: Kinds whose windows can execute as one batched replay per
#: functional trace (see :meth:`ExperimentEngine._run_serial`).
GROUP_REGISTRY: Dict[str, Callable[[Sequence[Dict[str, Any]]],
                                   Optional[List[Tuple[Dict[str, Any],
                                                       Dict[str, Any]]]]]] = {
    "microbench": _group_runner("microbench", microbench_materials,
                                _microbench_payload),
    "jvm": _group_runner("jvm", jvm_materials, _jvm_payload),
    "adversarial": _group_runner("adversarial", adversarial_materials,
                                 _adversarial_payload),
}


def run_window_group(kind: str, params_list: Sequence[Dict[str, Any]]
                     ) -> Optional[List[Tuple[Dict[str, Any],
                                              Dict[str, Any]]]]:
    """Execute a functional-key-sharing group of windows as one batch;
    ``None`` when the kind has no group runner or no store is active."""
    runner = GROUP_REGISTRY.get(kind)
    if runner is None:
        return None
    return runner(params_list)


@window_kind("jvm")
def _jvm_window(params: Dict[str, Any]) -> Dict[str, Any]:
    """One timed window of a Figure 12 mini-JVM benchmark variant."""
    materials = jvm_materials(params)
    result = _timed_window(
        "jvm", params, materials["program"],
        begin=materials["begin"],
        end=materials["end"],
        brr_unit=materials["brr_unit"],
    )
    return {
        "result": result.to_dict(),
        "program_words": materials["extra"]["program_words"],
        "cycles": result.cycles,
        "instructions": result.instructions,
    }
