"""Glue between the functional simulator and the timing model.

Reproduces the paper's marker-based measurement methodology (Section
5.1): markers are magic instructions counted by the simulator, used to
fast-forward, warm up, and delimit the measured window so that
differently instrumented binaries are compared over the equivalent
region of execution.

Two execution strategies produce the same :class:`WindowResult`:

* **lock-step** (:func:`time_program` / :func:`time_window`) — a fresh
  functional :class:`~repro.sim.machine.Machine` feeds the timing
  model one retired instruction at a time.  This is the golden
  reference path;
* **record/replay** (:func:`record_window` + :func:`replay_window`) —
  the functional stream is serialised once
  (:mod:`repro.sim.trace_io`) and each timing configuration replays
  the decoded records, paying zero functional ``Machine.step()``
  calls.  ``tests/test_trace_replay.py`` pins that the replayed stats
  are byte-identical to the lock-stepped reference.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.brr import RandomSource
from ..isa.program import Program
from ..sim.machine import Machine, MachineCheckpoint
from ..sim.trace_io import RecordedTrace, TraceFormatError, record_trace
from .config import TimingConfig
from .fastpath import (
    FastPathUnsupported,
    fastpath_mode,
    normalize_fast_mode,
)
from . import fastpath_vec
from .pipeline import TimingSimulator, TimingStats

#: (marker id, cumulative count) pair identifying an execution point.
MarkerPoint = Tuple[int, int]


def _prewarm_code(simulator: TimingSimulator, program: Program) -> None:
    """Install the code image in the L2, as a JIT that just wrote it
    would leave it.  Without this, the first taken sample pays DRAM
    latency for compulsory misses on its (rarely executed) out-of-line
    blocks — an artifact of short simulation windows, not of either
    sampling framework."""
    line = simulator.config.line_bytes
    addr = program.base
    while addr < program.end:
        simulator.hierarchy.l2.access(addr)
        addr += line


def _machine_for(
    program: Program,
    memory_size: int,
    brr_unit: Optional[RandomSource],
    setup,
    resume_from: Optional[MachineCheckpoint] = None,
) -> Machine:
    """One machine, ready to execute.

    The shared construction path of every timing entry point: build,
    then either restore a warm-up checkpoint or apply the caller's
    ``setup`` (never both — a checkpoint already contains the effects
    of the setup that preceded it, and re-running setup could clobber
    state the program wrote before the snapshot).
    """
    machine = Machine(program, memory_size=memory_size, brr_unit=brr_unit)
    if resume_from is not None:
        machine.restore(resume_from)
    elif setup is not None:
        setup(machine)
    return machine


def _simulator_for(config: Optional[TimingConfig], program: Program,
                   prewarm_code: bool) -> TimingSimulator:
    """One timing model, with the code image optionally pre-installed."""
    simulator = TimingSimulator(config)
    if prewarm_code:
        _prewarm_code(simulator, program)
    return simulator


@dataclass
class WindowResult:
    """Timing outcome of one measured window."""

    stats: TimingStats
    total_steps: int

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    def to_dict(self) -> dict:
        """Plain-scalar form for the result cache / process boundary."""
        return {"stats": self.stats.to_dict(),
                "total_steps": self.total_steps}

    @classmethod
    def from_dict(cls, data: dict) -> "WindowResult":
        return cls(stats=TimingStats.from_dict(data["stats"]),
                   total_steps=data["total_steps"])


def time_program(
    program: Program,
    brr_unit: Optional[RandomSource] = None,
    config: Optional[TimingConfig] = None,
    memory_size: int = 1 << 20,
    max_steps: int = 20_000_000,
    setup=None,
    prewarm_code: bool = True,
) -> WindowResult:
    """Time a whole program from entry to halt.

    ``setup(machine)``, if given, runs before execution — e.g. to load
    a data buffer into simulated memory.
    """
    machine = _machine_for(program, memory_size, brr_unit, setup)
    simulator = _simulator_for(config, program, prewarm_code)
    steps = 0
    while not machine.halted and steps < max_steps:
        simulator.step(machine.step())
        steps += 1
    if not machine.halted:
        raise RuntimeError(f"program did not halt within {max_steps} steps")
    return WindowResult(stats=simulator.stats, total_steps=steps)


def time_window(
    program: Program,
    begin: MarkerPoint,
    end: MarkerPoint,
    brr_unit: Optional[RandomSource] = None,
    config: Optional[TimingConfig] = None,
    memory_size: int = 1 << 20,
    fast_forward: Optional[MarkerPoint] = None,
    max_steps: int = 50_000_000,
    setup=None,
    prewarm_code: bool = True,
) -> WindowResult:
    """Time a marker-delimited window of a program.

    ``fast_forward`` (optional) is executed functionally only — the
    analogue of Simics pure-functional mode.  From there to ``begin``
    the timing model runs but its statistics are discarded (cache and
    predictor warm-up); the returned stats cover ``begin``..``end``.
    ``setup(machine)`` runs before execution (e.g. data loading).

    This lock-step loop is the reference that the tests and
    ``repro.fuzz`` compare record/replay against; the engine always
    records and replays (:func:`record_window`, :func:`replay_window`).
    """
    machine = _machine_for(program, memory_size, brr_unit, setup)
    simulator = _simulator_for(config, program, prewarm_code)
    steps = 0

    if fast_forward is not None:
        steps += machine.run_until_marker(
            fast_forward[0], fast_forward[1], max_steps=max_steps
        )

    def run_to(point: MarkerPoint) -> int:
        count = 0
        marker_id, target = point
        while (not machine.halted
               and machine.marker_counts.get(marker_id, 0) < target):
            simulator.step(machine.step())
            count += 1
            if steps + count > max_steps:
                raise RuntimeError(
                    f"marker {marker_id} not reached within {max_steps} steps"
                )
        if machine.marker_counts.get(marker_id, 0) < target:
            raise RuntimeError(
                f"program halted before marker {marker_id} fired "
                f"{target} time(s)"
            )
        return count

    steps += run_to(begin)
    baseline = simulator.snapshot()
    steps += run_to(end)
    return WindowResult(stats=simulator.stats - baseline, total_steps=steps)


# ----------------------------------------------------------------------
# Record once / replay many.


def record_window(
    program: Program,
    end: MarkerPoint,
    brr_unit: Optional[RandomSource] = None,
    memory_size: int = 1 << 20,
    max_steps: int = 50_000_000,
    setup=None,
    path=None,
    resume_from: Optional[MachineCheckpoint] = None,
) -> RecordedTrace:
    """Functionally execute from program entry to the ``end`` marker
    point, serialising every retired instruction.

    This is the *record* phase: purely functional (no timing model
    runs), one pass, streamed straight into the binary encoding while
    the same pass fills the replay columns
    (:func:`~repro.sim.trace_io.record_trace`).  The returned handle,
    re-opened from the written bytes, adopts those columns, so
    replaying a fresh recording decodes nothing.  It carries a marker
    index, so any fast-forward / begin / end partition of the stream —
    for any number of timing configurations — resolves without
    re-execution.

    ``path`` writes the encoding to a file (the trace-store path);
    without it the trace is kept in memory.  ``resume_from`` starts
    from a :meth:`~repro.sim.machine.Machine.checkpoint` instead of
    entry; the trace then covers only post-checkpoint execution, and
    replayed ``total_steps`` counts are relative to the snapshot.
    """
    machine = _machine_for(program, memory_size, brr_unit, setup,
                           resume_from=resume_from)
    sink = open(path, "wb") if path is not None else io.BytesIO()
    try:
        columns = record_trace(machine, sink, end, max_steps)
        if path is not None:
            sink.close()
            trace = RecordedTrace.open(path)
        else:
            trace = RecordedTrace(sink.getvalue())
    finally:
        if path is not None and not sink.closed:
            sink.close()
    trace.adopt_columns(columns)
    return trace


# Out-of-band channel describing the most recent replay: which timing
# path ran ("fast" or "golden"), its throughput, and — when the
# validation watchdog sampled it — the golden cross-check outcome.
# Observability only — keeping it out of WindowResult keeps cached
# payloads (and the engine's content-addressed keys) byte-identical
# across paths.
_last_replay_info: Optional[Dict[str, object]] = None


def _set_replay_info(path: str, records: int, elapsed: float,
                     validation: Optional[Dict[str, object]] = None,
                     kernel: Optional[str] = None,
                     route: Optional[str] = None) -> None:
    global _last_replay_info
    _last_replay_info = {
        "timing_path": path,
        "timing_kernel": kernel or path,
        "timing_route": route,
        "replay_records": records,
        "replay_records_per_s": (records / elapsed) if elapsed > 0 else None,
    }
    if validation:
        _last_replay_info.update(validation)


def consume_replay_info() -> Optional[Dict[str, object]]:
    """Pop the telemetry of the most recent :func:`replay_window`."""
    global _last_replay_info
    info = _last_replay_info
    _last_replay_info = None
    return info


def _resolve_window(
    trace: RecordedTrace,
    begin: MarkerPoint,
    end: MarkerPoint,
    fast_forward: Optional[MarkerPoint],
) -> Tuple[int, int, int]:
    """Marker points -> resolved (i_skip, i_begin, i_end) record indices."""
    i_skip = (trace.marker_step(*fast_forward) if fast_forward is not None
              else -1)
    i_begin = trace.marker_step(*begin)
    i_end = trace.marker_step(*end)
    if not i_skip <= i_begin <= i_end:
        raise TraceFormatError(
            f"window points out of order: fast-forward@{i_skip}, "
            f"begin@{i_begin}, end@{i_end}"
        )
    return i_skip, i_begin, i_end


def _resolve_fast_mode(fast: Optional[str]) -> str:
    """``fast`` argument -> kernel mode (the active one when ``None``)."""
    return normalize_fast_mode(fast) or fastpath_mode()


def _replay_resolved(
    trace: RecordedTrace,
    i_skip: int,
    i_begin: int,
    i_end: int,
    config: Optional[TimingConfig],
    program: Optional[Program],
    prewarm_code: bool,
    mode: str,
) -> WindowResult:
    """Replay one resolved window under an already-resolved kernel mode."""
    n_replayed = i_end - i_skip
    if mode != "off":
        try:
            started = time.perf_counter()
            if mode == "vector":
                stats = fastpath_vec.run_fastpath_vec(
                    trace, i_skip, i_begin, i_end, config=config,
                    program=program, prewarm_code=prewarm_code,
                )
            else:  # "solver": only _replay_solver/_replay_batch
                stats = fastpath_vec._run(
                    trace, i_skip, i_begin, i_end, config, program,
                    prewarm_code, cost_check=False)
            kernel = fastpath_vec.last_kernel
            route = fastpath_vec.last_route
            elapsed = time.perf_counter() - started
            stats, validation = _maybe_validate(
                stats, trace, i_skip, i_begin, i_end, config,
                program, prewarm_code)
            _set_replay_info("fast", n_replayed, elapsed,
                             validation=validation, kernel=kernel,
                             route=route)
            return WindowResult(stats=stats, total_steps=i_end + 1)
        except FastPathUnsupported:
            pass  # golden loop below reproduces (or raises) exactly
    started = time.perf_counter()
    stats = _replay_golden(trace, i_skip, i_begin, i_end, config,
                           program, prewarm_code)
    _set_replay_info("golden", n_replayed, time.perf_counter() - started)
    return WindowResult(stats=stats, total_steps=i_end + 1)


def replay_window(
    trace: RecordedTrace,
    begin: MarkerPoint,
    end: MarkerPoint,
    config: Optional[TimingConfig] = None,
    fast_forward: Optional[MarkerPoint] = None,
    program: Optional[Program] = None,
    prewarm_code: bool = True,
    fast: Optional[str] = None,
) -> WindowResult:
    """Replay a recorded functional stream through the timing model.

    Exactly mirrors the lock-step :func:`time_window` schedule — skip
    the fast-forward prefix entirely, feed warm-up records with stats
    discarded at ``begin``, measure to ``end`` — so the resulting
    :class:`WindowResult` is byte-identical to the reference path.
    ``program`` is required when ``prewarm_code`` is set (the code
    image's address range is not part of the trace).

    ``fast`` selects the execution strategy: ``"vector"`` (the
    :mod:`~repro.timing.fastpath_vec` fixpoint kernel, which routes
    windows it does not admit or cannot solve exactly to the loop
    kernel of :mod:`~repro.timing.fastpath`) or ``"off"`` (the
    per-record golden loop).  ``None`` (default) follows the active mode — the
    engine's ``config.fast`` inside engine execution, else
    ``"vector"``.  Every strategy produces byte-identical stats.
    """
    i_skip, i_begin, i_end = _resolve_window(trace, begin, end,
                                             fast_forward)
    if prewarm_code and program is None:
        raise ValueError("prewarm_code requires the program image")
    return _replay_resolved(trace, i_skip, i_begin, i_end, config,
                            program, prewarm_code,
                            _resolve_fast_mode(fast))


def _replay_solver(
    trace: RecordedTrace,
    begin: MarkerPoint,
    end: MarkerPoint,
    config: Optional[TimingConfig] = None,
    fast_forward: Optional[MarkerPoint] = None,
    program: Optional[Program] = None,
    prewarm_code: bool = True,
) -> WindowResult:
    """:func:`replay_window` on the vector kernel with admission's cost
    check skipped (private: the golden/fuzz suites and ``repro.fuzz``
    use it so the solver keeps seeing the dense windows production
    routes to the loop kernel)."""
    return _replay_resolved(trace,
                            *_resolve_window(trace, begin, end,
                                             fast_forward),
                            config, program, prewarm_code, "solver")


def replay_window_batch(
    trace: RecordedTrace,
    windows: Sequence[Dict[str, object]],
    program: Optional[Program] = None,
    prewarm_code: bool = True,
    fast: Optional[str] = None,
) -> List[WindowResult]:
    """Replay several timing windows of ONE recorded trace in a batch.

    ``windows`` is a sequence of dicts with keys ``begin``, ``end`` and
    optionally ``config`` / ``fast_forward``.  All windows replay the
    same functional stream, so the per-trace work — columnar decode,
    word tables, and (on the vector kernel) the cache/branch event
    passes shared between configs with matching projections — is paid
    once instead of per window.  Results are byte-identical to calling
    :func:`replay_window` once per window; the batch form only changes
    the amortisation.  After the call, :func:`consume_replay_info`
    reports the last window's path, kernel and route with the record
    count and throughput of the whole batch.
    """
    return _replay_batch(trace, windows, program, prewarm_code,
                         _resolve_fast_mode(fast))


def _replay_batch(
    trace: RecordedTrace,
    windows: Sequence[Dict[str, object]],
    program: Optional[Program],
    prewarm_code: bool,
    mode: str,
) -> List[WindowResult]:
    """:func:`replay_window_batch` under a resolved kernel mode
    (``"solver"`` is the private entry of :func:`_replay_solver`)."""
    if prewarm_code and program is None:
        raise ValueError("prewarm_code requires the program image")
    global _last_replay_info
    _last_replay_info = None  # an empty batch replays nothing
    results: List[WindowResult] = []
    records = 0
    started = time.perf_counter()
    for window in windows:
        results.append(_replay_resolved(
            trace, *_resolve_window(trace, window["begin"], window["end"],
                                    window.get("fast_forward")),
            window.get("config"), program, prewarm_code, mode))
        records += _last_replay_info["replay_records"]
    elapsed = time.perf_counter() - started
    if _last_replay_info is not None:
        _last_replay_info.update(
            replay_records=records,
            replay_records_per_s=records / elapsed if elapsed > 0 else None)
    return results


def _replay_golden(
    trace: RecordedTrace,
    i_skip: int,
    i_begin: int,
    i_end: int,
    config: Optional[TimingConfig],
    program: Optional[Program],
    prewarm_code: bool,
) -> TimingStats:
    """The per-record reference replay loop over a resolved window."""
    simulator = _simulator_for(config, program, prewarm_code)
    baseline = simulator.snapshot()
    for index, record in enumerate(trace.records()):
        if index > i_end:
            break
        if index <= i_skip:
            continue  # functional-only fast-forward: timing never ran
        simulator.step(record)
        if index == i_begin:
            baseline = simulator.snapshot()
    return simulator.stats - baseline


def _maybe_validate(
    stats: TimingStats,
    trace: RecordedTrace,
    i_skip: int,
    i_begin: int,
    i_end: int,
    config: Optional[TimingConfig],
    program: Optional[Program],
    prewarm_code: bool,
) -> Tuple[TimingStats, Optional[Dict[str, object]]]:
    """Cross-check a fast-path result against the golden model when the
    validation watchdog (``REPRO_VALIDATE``) samples this replay.

    Returns the stats to report — the fast result, or the golden one
    under the ``fallback`` policy on divergence — plus the telemetry
    dict for :func:`_set_replay_info` (``None`` when not sampled).
    """
    # Imported lazily: repro.engine imports this package at module
    # scope, so a top-level import here would be circular.
    from ..engine import integrity

    if not integrity.take_validation_ticket():
        return stats, None
    golden = _replay_golden(trace, i_skip, i_begin, i_end, config,
                            program, prewarm_code)
    mismatches = integrity.compare_stats(stats, golden)
    if not mismatches:
        return stats, {"validation": "pass"}
    policy = integrity.get_validation_settings().policy
    detail = {"validation": "divergence",
              "validation_policy": policy,
              "validation_mismatches": mismatches}
    if policy == "raise":
        raise integrity.ValidationDivergence(
            f"fast-path replay diverged from golden model on "
            f"{len(mismatches)} field(s): "
            + ", ".join(m["field"] for m in mismatches))
    if policy == "fallback":
        return golden, detail
    return stats, detail  # "warn": keep the fast stats, report it


def overhead_percent(base_cycles: int, instrumented_cycles: int) -> float:
    """Execution-time overhead of an instrumented run vs. its baseline."""
    if base_cycles <= 0:
        raise ValueError("baseline cycle count must be positive")
    return 100.0 * (instrumented_cycles - base_cycles) / base_cycles


def cycles_per_site(base_cycles: int, instrumented_cycles: int,
                    sites_encountered: int) -> float:
    """Average added cycles per dynamically encountered sampling site
    (the Figure 14 metric)."""
    if sites_encountered <= 0:
        raise ValueError("site count must be positive")
    return (instrumented_cycles - base_cycles) / sites_encountered
