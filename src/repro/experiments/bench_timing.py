"""The ``repro bench`` harness: kernel-tagged replay timing benchmark.

Runs every window the scorecard grades — the 15 Figure-12 cells (5
mini-JVM benchmarks x none/cbs/brr at full scale) and the 4 Figure-13
framework combinations — through every replay implementation:

* the per-record golden loop (``replay_window(..., fast="off")``) —
  the reference both for correctness and for speedups;
* the ``loop`` kernel (:func:`repro.timing.fastpath.run_fastpath`,
  called directly) — the event passes plus the per-record residue;
* the ``vector`` kernel (:mod:`repro.timing.fastpath_vec`) — the
  span-replay fixpoint kernel, measured both *cold* (first replay:
  event passes + fixpoint from zero) and *warm* (steady state: the
  memoised passes and warm-started fixpoint every later config of a
  sweep pays).

Each window is built and recorded once (in memory; the result cache
and trace store are bypassed) — the cold front end every uncached
window pays, reported as ``build_s``, ``record_s`` and
``record_steps_per_s``; the recording fills the replay columns too.
``decode_s`` times decoding those columns from the recorded bytes on a
fresh handle, the cost a trace loaded from a store pays, and the
decode must equal the recorder's columns.  Each kernel's stats are
checked byte-identical to the golden model, and each kernel timed.
Every per-kernel row is tagged with the kernel that actually executed
— the vector kernel routes windows it does not admit, or cannot solve
exactly, to the loop kernel, and the tag records that.

The emitted document (``BENCH_timing.json`` under ``--out``) is the
machine-readable perf trajectory: per-window and per-kernel records/s
and speedup, per-figure aggregates (the kernel-v2 acceptance floor is
the Figure-12 warm-vector aggregate), the batched-LFSR rates, and the
Section 4 stream generators against their per-event references
(``positions``).  The ``startup`` block times what every CLI call,
``repro serve`` start and subprocess pays before any window runs: a
fresh interpreter importing ``repro.api`` and building one
:class:`~repro.engine.ExperimentEngine` with its stores.  The
``served`` block times a warm served request in process and counts the
window specs it builds.
``repro bench`` exits non-zero if any window's stats diverge.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from ..engine.spec import WindowSpec
from ..engine.windows import MATERIALS


def scorecard_bench_specs() -> List[WindowSpec]:
    """The 19 scorecard windows (15 Figure-12 cells + 4 Figure-13
    combos), exactly as the golden equivalence tests pin them."""
    from ..jvm.benchmarks import FIGURE12_BENCHMARKS
    from .fig12 import jvm_window_spec
    from .fig13 import COMBOS, microbench_window_spec

    return [
        jvm_window_spec(name, variant, scale=1.0)
        for name in FIGURE12_BENCHMARKS
        for variant in ("none", "cbs", "brr")
    ] + [
        microbench_window_spec(600, duplication, seed=0, kind=kind,
                               interval=1024)
        for kind, duplication in COMBOS
    ]


#: Benchmarked kernel passes: ``loop`` (a direct
#: :func:`~repro.timing.fastpath.run_fastpath` call) or a ``fast`` mode,
#: plus whether the pass is a repeat (steady-state) measurement of the
#: same kernel; every other pass starts from an empty per-trace memo.
_PASSES = (("loop", "loop", False),
           ("vector", "vector", False),
           ("vector_warm", "vector", True))


def _kernel_row(records: int, golden_s: float, seconds: float,
                kernel: str, identical: bool) -> Dict[str, Any]:
    return {
        "kernel": kernel,
        "seconds": round(seconds, 6),
        "records_per_s": round(records / seconds) if seconds > 0 else None,
        "speedup": round(golden_s / seconds, 3) if seconds > 0 else None,
        "identical": identical,
    }


def _bench_window(spec: WindowSpec) -> Dict[str, Any]:
    """Record one window, replay it on every kernel, compare and time."""
    from ..sim.trace_io import RecordedTrace
    from ..timing.fastpath import run_fastpath
    from ..timing.runner import (
        WindowResult,
        _resolve_window,
        record_window,
        replay_window,
    )

    params = spec.params_dict()
    started = time.perf_counter()
    materials = MATERIALS[spec.kind](params)
    build_s = time.perf_counter() - started
    config = params.get("config")
    if config is not None:
        from ..timing.config import TimingConfig

        config = TimingConfig.from_dict(config)
    started = time.perf_counter()
    trace = record_window(
        materials["program"], materials["end"],
        brr_unit=materials["brr_unit"], setup=materials["setup"],
    )
    record_s = time.perf_counter() - started

    def replay(mode):
        started = time.perf_counter()
        if mode == "loop":
            window = _resolve_window(trace, materials["begin"],
                                     materials["end"],
                                     materials["fast_forward"])
            result = WindowResult(
                stats=run_fastpath(trace, *window, config=config,
                                   program=materials["program"]),
                total_steps=window[2] + 1)
        else:
            result = replay_window(
                trace, materials["begin"], materials["end"], config=config,
                fast_forward=materials["fast_forward"],
                program=materials["program"], fast=mode,
            )
        return result, time.perf_counter() - started

    # The recorded handle already holds the columns its recording
    # filled; time the decode a trace loaded from a store pays on a
    # fresh handle of the same bytes, and check it agrees.
    fresh = RecordedTrace(trace._data)
    started = time.perf_counter()
    decoded = fresh.columns()
    decode_s = time.perf_counter() - started
    columns_identical = _same_columns(trace.columns(), decoded)

    golden, golden_s = replay("off")
    records = len(trace)
    kernels: Dict[str, Dict[str, Any]] = {}
    for name, mode, repeat in _PASSES:
        if not repeat:
            trace.columns().vec_cache = None
        result, seconds = replay(mode)
        executed = (result.telemetry["timing_kernel"] if mode == "vector"
                    else "loop")
        kernels[name] = _kernel_row(
            records, golden_s, seconds, executed,
            result.stats == golden.stats
            and result.total_steps == golden.total_steps)
    vector = kernels["vector"]
    return {
        "label": spec.label(),
        "kind": spec.kind,
        "figure": "figure12" if spec.kind == "jvm" else "figure13",
        "records": records,
        **_front_end(records, build_s, record_s),
        "decode_s": round(decode_s, 6),
        "golden_s": round(golden_s, 6),
        "golden_records_per_s": round(records / golden_s) if golden_s > 0
        else None,
        "kernels": kernels,
        # Historical flat fields (= the cold vector pass).
        "fast_s": vector["seconds"],
        "speedup": vector["speedup"],
        "fast_records_per_s": vector["records_per_s"],
        "identical": columns_identical
        and all(k["identical"] for k in kernels.values()),
        "cycles": golden.stats.cycles,
        "instructions": golden.stats.instructions,
    }


def _same_columns(recorded, decoded) -> bool:
    """Whether the recorder's columns equal a decode of its bytes."""
    return all(getattr(recorded, field) == getattr(decoded, field)
               for field in recorded.ARRAYS + ("n_records", "instrs",
                                               "has_trapped"))


def _front_end(records: int, build_s: float,
               record_s: float) -> Dict[str, Any]:
    """The cold front end of a window: building its program and
    recording its functional trace (one ``Machine.step`` per record)."""
    return {
        "build_s": round(build_s, 6),
        "record_s": round(record_s, 6),
        "record_steps_per_s": round(records / record_s) if record_s > 0
        else None,
    }


def _aggregate(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    golden_s = sum(row["golden_s"] for row in rows)
    records = sum(row["records"] for row in rows)
    kernels: Dict[str, Dict[str, Any]] = {}
    for name, _mode, _repeat in _PASSES:
        seconds = sum(row["kernels"][name]["seconds"] for row in rows)
        executed = sorted({row["kernels"][name]["kernel"] for row in rows})
        kernels[name] = _kernel_row(
            records, golden_s, seconds, "+".join(executed),
            all(row["kernels"][name]["identical"] for row in rows))
    vector = kernels["vector"]
    warm_s = kernels["vector_warm"]["seconds"]
    return {
        "windows": len(rows),
        "records": records,
        **_front_end(records, sum(row["build_s"] for row in rows),
                     sum(row["record_s"] for row in rows)),
        "golden_s": round(golden_s, 6),
        "golden_records_per_s": round(records / golden_s) if golden_s > 0
        else None,
        "kernels": kernels,
        # The CI perf-smoke floor: steady-state vector over the loop
        # kernel (cold vector pays the one-time event passes and is
        # not the number sweeps experience).
        "vector_over_loop_warm": round(
            kernels["loop"]["seconds"] / warm_s, 3) if warm_s > 0 else None,
        "fast_s": vector["seconds"],
        "speedup": vector["speedup"],
        "fast_records_per_s": vector["records_per_s"],
        "identical": all(row["identical"] for row in rows),
    }


def bench_lfsr_rates(bits: int = 1 << 16) -> Dict[str, Any]:
    """Bit-at-a-time vs. word-batched LFSR generation (satellite of
    the same PR; ``benchmarks/bench_lfsr.py`` pins the speedup)."""
    from ..core.lfsr import Lfsr

    words = bits // 64
    bits = words * 64
    stepper = Lfsr(20, seed=0xACE1)
    started = time.perf_counter()
    for _ in range(bits):
        stepper.step()
    step_s = time.perf_counter() - started

    batched = Lfsr(20, seed=0xACE1)
    started = time.perf_counter()
    batched.step_words(words)
    words_s = time.perf_counter() - started
    assert batched.state == stepper.state, "batched LFSR diverged"

    return {
        "bits": bits,
        "step_s": round(step_s, 6),
        "step_words_s": round(words_s, 6),
        "step_bits_per_s": round(bits / step_s) if step_s > 0 else None,
        "step_words_bits_per_s": round(bits / words_s) if words_s > 0
        else None,
        "speedup": round(step_s / words_s, 3) if words_s > 0 else None,
    }


def bench_position_rates(events: int = 1 << 16,
                         draws: int = 1 << 20) -> Dict[str, Any]:
    """The Section 4 stream generators against their per-event
    references: branch-on-random positions from
    :class:`~repro.sampling.positions.BrrPositionStream` against
    :class:`~repro.sampling.samplers.BrrSampler` asking the hardware
    model once per event, and the DaCapo streams' bucketed weighted
    draw against ``Generator.choice``.  Each pair must agree exactly."""
    import numpy as np

    from ..core.brr import BranchOnRandomUnit
    from ..core.lfsr import Lfsr
    from ..sampling.positions import BrrPositionStream
    from ..sampling.samplers import BrrSampler
    from ..workloads.dacapo import (
        DACAPO_BENCHMARKS,
        _WeightedDraw,
        method_weights,
    )

    field, seed = 9, 0xACE1
    sampler = BrrSampler(field=field,
                         unit=BranchOnRandomUnit(Lfsr(16, seed=seed)))
    started = time.perf_counter()
    expected = [index for index in range(events) if sampler.should_sample()]
    sampler_s = time.perf_counter() - started
    started = time.perf_counter()
    positions = BrrPositionStream(field, width=16, seed=seed).take(events)
    take_s = time.perf_counter() - started

    weights = method_weights(DACAPO_BENCHMARKS[-1])
    started = time.perf_counter()
    chosen = np.random.default_rng(seed).choice(weights.size, draws,
                                                p=weights)
    choice_s = time.perf_counter() - started
    draw = _WeightedDraw(weights)
    started = time.perf_counter()
    drawn = draw(np.random.default_rng(seed), draws)
    draw_s = time.perf_counter() - started

    def rate(count: int, seconds: float) -> Optional[int]:
        return round(count / seconds) if seconds > 0 else None

    return {
        "brr": {
            "events": events,
            "sampler_events_per_s": rate(events, sampler_s),
            "take_events_per_s": rate(events, take_s),
            "speedup": round(sampler_s / take_s, 3) if take_s > 0
            else None,
            "identical": positions.tolist() == expected,
        },
        "draw": {
            "events": draws,
            "choice_events_per_s": rate(draws, choice_s),
            "draw_events_per_s": rate(draws, draw_s),
            "speedup": round(choice_s / draw_s, 3) if draw_s > 0
            else None,
            "identical": bool(np.array_equal(drawn, chosen)),
        },
    }


#: Child-interpreter body of :func:`bench_startup`: the import and
#: engine construction every process pays, then its own resource usage.
#: Peak RSS is read from ``VmHWM`` where Linux offers it: ``ru_maxrss``
#: keeps the high-water mark of the forked parent across ``exec``, so
#: a child of a large ``repro bench`` process would report the parent's.
_STARTUP_SCRIPT = """\
import json, resource, sys
import repro.api
from repro.engine import ExperimentEngine
ExperimentEngine()
usage = resource.getrusage(resource.RUSAGE_SELF)
maxrss_kb = usage.ru_maxrss
try:
    with open("/proc/self/status") as status:
        maxrss_kb = next(int(line.split()[1]) for line in status
                         if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    pass
print(json.dumps({"cpu_s": usage.ru_utime + usage.ru_stime,
                  "maxrss_kb": maxrss_kb,
                  "modules": len(sys.modules),
                  "scipy_stats_loaded": "scipy.stats" in sys.modules}))
"""


def bench_startup(runs: int = 3) -> Dict[str, Any]:
    """Start-up cost of a fresh process, median of ``runs`` children.

    The children run one after another, each on an empty store
    directory of its own, and report their own CPU time (user +
    system), peak RSS and loaded-module count.
    """
    src = str(pathlib.Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    for name in ("REPRO_CACHE", "REPRO_TRACE"):
        env.pop(name, None)
    samples = []
    for _ in range(runs):
        with tempfile.TemporaryDirectory() as cache_dir:
            env["REPRO_CACHE_DIR"] = cache_dir
            out = subprocess.run(
                [sys.executable, "-c", _STARTUP_SCRIPT], env=env,
                capture_output=True, text=True, check=True).stdout
        samples.append(json.loads(out))
    return {
        "runs": runs,
        "cpu_s": round(statistics.median(s["cpu_s"] for s in samples), 3),
        "peak_rss_mb": round(statistics.median(
            s["maxrss_kb"] for s in samples) / 1024.0, 1),
        "modules": statistics.median(s["modules"] for s in samples),
        "scipy_stats_loaded": any(s["scipy_stats_loaded"]
                                  for s in samples),
    }


def bench_served(requests: int = 30, scale: int = 48) -> Dict[str, Any]:
    """CPU cost of a warm served request, and what each one retains.

    An in-process :class:`~repro.serve.service.SimulationService` over
    result and trace stores in a temporary directory serves Figure 13
    at ``scale`` characters, its ``fraction:0.5`` form and Figure 9 at
    scale 0.002 (24 accuracy windows) once cold, then ``requests``
    times each warm: the median process CPU milliseconds per request
    of each form.  A further ``requests`` rounds of the two Figure 13
    forms under :mod:`tracemalloc` give the bytes a warm request
    leaves allocated; Figure 9 stays out of that mean, so half of the
    measured requests are sampled ones.  A warm request simulates
    nothing: its cost is engine bookkeeping around memory-tier store
    reads, the reducers and the response document.  It builds no
    window spec either, since its figure's population is memoised:
    ``specs_built_per_warm_request`` counts the
    :meth:`WindowSpec.make` calls of the timed requests.
    """
    import asyncio
    import gc
    import tracemalloc

    from ..engine import EngineConfig, ExperimentEngine, ResultCache, TraceStore
    from ..serve.service import SimulationService

    forms = {"figure13": ("figure13", {"scale": scale}),
             "figure13_fraction": ("figure13", {"scale": scale,
                                                "sample": "fraction:0.5"}),
             "figure9": ("figure9", {"scale": 0.002})}
    retained_forms = (forms["figure13"], forms["figure13_fraction"])
    spec_make = WindowSpec.__dict__["make"]
    built = 0

    def counting_make(kind: str, /, **params: Any) -> WindowSpec:
        nonlocal built
        built += 1
        return spec_make.__func__(WindowSpec, kind, **params)

    with tempfile.TemporaryDirectory() as root:
        service = SimulationService(engine=ExperimentEngine(
            config=EngineConfig(jobs=1),
            cache=ResultCache(root=pathlib.Path(root) / "results"),
            trace_store=TraceStore(pathlib.Path(root) / "traces")))
        loop = asyncio.new_event_loop()

        def serve(form: Tuple[str, Dict[str, Any]]) -> float:
            started = time.process_time()
            loop.run_until_complete(service.submit(*form))
            return time.process_time() - started

        try:
            for form in forms.values():
                serve(form)  # cold: fills both stores
            WindowSpec.make = staticmethod(counting_make)
            try:
                cpu_ms = {name: round(statistics.median(
                              serve(form) for _ in range(requests)) * 1e3, 3)
                          for name, form in forms.items()}
            finally:
                WindowSpec.make = spec_make
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(requests):
                    for form in retained_forms:
                        serve(form)
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        finally:
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()
    return {
        "requests": requests,
        "scale": scale,
        "cpu_ms": cpu_ms,
        "specs_built_per_warm_request": built / (requests * len(forms)),
        "retained_bytes_per_request": round(
            retained / (requests * len(retained_forms))),
    }


def bench_timing(specs: Optional[List[WindowSpec]] = None) -> Dict[str, Any]:
    """Run the full fastpath-vs-golden benchmark document."""
    rows = [_bench_window(spec)
            for spec in (specs if specs is not None
                         else scorecard_bench_specs())]
    figures = {}
    for figure in ("figure12", "figure13"):
        subset = [row for row in rows if row["figure"] == figure]
        if subset:
            figures[figure] = _aggregate(subset)
    return {
        "schema": 2,
        "windows": rows,
        "figures": figures,
        "aggregate": _aggregate(rows),
        "lfsr": bench_lfsr_rates(),
        "positions": bench_position_rates(),
        "startup": bench_startup(),
        "served": bench_served(),
    }


def format_bench(data: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`bench_timing` document."""

    def rates(entry: Dict[str, Any]) -> str:
        cells = []
        for name in ("loop", "vector", "vector_warm"):
            kernel = entry["kernels"][name]
            tag = "*" if kernel["kernel"] not in (name.split("_")[0],) \
                else " "
            cells.append(f"{kernel['speedup']:>7.2f}x{tag}")
        return " ".join(cells)

    lines = [
        "repro bench: replay kernels vs golden (speedups; * = delegated)",
        f"{'window':<28} {'records':>9} {'build_s':>8} {'record/s':>9} "
        f"{'golden_s':>9} "
        f"{'loop':>8}  {'vector':>8} {'vec-warm':>8}   warm rec/s  ok",
    ]
    entries = [(row["label"], row) for row in data["windows"]]
    entries += list(data["figures"].items())
    entries.append(("aggregate", data["aggregate"]))
    for name, entry in entries:
        warm = entry["kernels"]["vector_warm"]
        lines.append(
            f"{name:<28} {entry['records']:>9} {entry['build_s']:>8.3f} "
            f"{entry['record_steps_per_s']:>9,} "
            f"{entry['golden_s']:>9.3f} {rates(entry)} "
            f"{warm['records_per_s']:>12,}  "
            f"{'yes' if entry['identical'] else 'NO'}"
        )
    lfsr = data["lfsr"]
    lines.append(
        f"lfsr step_words ({lfsr['bits']} bits): "
        f"{lfsr['step_bits_per_s']:,} -> {lfsr['step_words_bits_per_s']:,} "
        f"bits/s ({lfsr['speedup']:.2f}x)"
    )
    for name, slow, fast in (("brr", "sampler", "take"),
                             ("draw", "choice", "draw")):
        row = data["positions"][name]
        lines.append(
            f"positions {name} ({row['events']} events): "
            f"{slow} {row[f'{slow}_events_per_s']:,} -> "
            f"{fast} {row[f'{fast}_events_per_s']:,} events/s "
            f"({row['speedup']:.2f}x, "
            f"{'identical' if row['identical'] else 'DIVERGED'})")
    startup = data["startup"]
    lines.append(
        f"startup (import repro.api + engine, median of {startup['runs']}): "
        f"{startup['cpu_s']:.3f} s CPU, {startup['peak_rss_mb']:.1f} MB "
        f"peak RSS, {startup['modules']} modules, scipy.stats "
        f"{'loaded' if startup['scipy_stats_loaded'] else 'not loaded'}"
    )
    served = data["served"]
    lines.append(
        f"served warm Figure 13 ({served['scale']} chars, median of "
        f"{served['requests']}): {served['cpu_ms']['figure13']:.3f} ms "
        f"CPU, fraction:0.5 {served['cpu_ms']['figure13_fraction']:.3f} "
        f"ms, Figure 9 {served['cpu_ms']['figure9']:.3f} ms; "
        f"{served['specs_built_per_warm_request']:g} specs built and "
        f"{served['retained_bytes_per_request']} B retained per request")
    status = "all windows byte-identical" \
        if data["aggregate"]["identical"] else "DIVERGENCE DETECTED"
    lines.append(status)
    return "\n".join(lines)
