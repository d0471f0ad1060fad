"""The :class:`ExperimentEngine`: cached, parallel, fault-tolerant
window execution.

Experiments declare their work as a list of
:class:`~repro.engine.spec.WindowSpec`s and reduce the returned
payloads; the engine owns everything in between:

* **cache** — each spec's digest is looked up in the content-addressed
  :class:`~repro.engine.cache.ResultCache` before any simulation runs;
  completed windows are durably cached the moment they finish, which
  is what makes interrupted runs resumable (``repro resume``);
* **traces** — timed windows record/replay their functional streams
  through the engine's :class:`~repro.engine.tracestore.TraceStore`
  (keyed by the spec's functional projection), so all timing-config
  variations of one window pay a single functional execution;
* **fan-out** — cache misses execute on a ``ProcessPoolExecutor``
  (``jobs`` workers) via ``submit`` + ``wait``, or, with ``jobs=1``,
  serially in spec order in the calling process — the deterministic
  fallback that reproduces the seed code's execution order exactly;
* **fault tolerance** — a crashed worker (``BrokenProcessPool``), a
  pickling error, or a window that exceeds the per-window
  :attr:`~repro.engine.config.EngineConfig.timeout` is retried with
  exponential backoff on a rebuilt pool; when the budget runs out the
  :attr:`~repro.engine.config.EngineConfig.failure_policy` decides
  between raising and returning a typed :class:`WindowFailure`
  placeholder so reducers can degrade gracefully;
* **observability** — every window (hit, miss, or failure) is logged
  to the engine's :class:`~repro.engine.artifacts.RunRecorder`,
  including its attempt count and trace-store usage; without a ledger
  a cache hit is only counted (:meth:`RunRecorder.record_hits`).

Windows are pure functions of their specs, so hit-vs-miss,
record-vs-replay, serial-vs-parallel and fault-vs-clean execution
cannot change results, only wall time; ``tests/test_engine.py`` and
``tests/test_engine_faults.py`` pin that property.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import time
from collections import deque
from concurrent import futures
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .artifacts import RunRecorder, WindowRecord, completed_keys, read_run_log
from .cache import ResultCache, cache_enabled_by_env
from .config import EngineConfig
from .faults import InjectedWorkerFault, maybe_inject
from .integrity import ValidationWatchdog
from .spec import WindowSpec
from .tracestore import (
    TraceStore,
    default_trace_dir,
    functional_key,
    trace_enabled_by_env,
)


class WindowTimeout(TimeoutError):
    """A pool window exceeded the configured per-window timeout."""


#: Failure classes worth retrying: the window itself is presumed fine,
#: the *execution* was the casualty (crashed/hung worker, transport
#: error, injected fault).  Anything else is a programming error and
#: propagates (or is skipped) without burning retries.
_TRANSIENT_ERRORS = (
    InjectedWorkerFault,
    BrokenExecutor,          # includes BrokenProcessPool
    futures.TimeoutError,
    TimeoutError,            # includes WindowTimeout
    pickle.PicklingError,
    EOFError,
)


@dataclass(frozen=True)
class WindowFailure:
    """Typed placeholder for a window abandoned under ``skip`` policy.

    Reducers receive it in place of the payload dict; they can test
    :func:`is_failure` (or duck-type via :meth:`get`, which answers
    ``None`` for every payload field) and degrade gracefully instead
    of aborting the whole figure.
    """

    key: str
    kind: str
    label: str
    error: str
    attempts: int
    failed: bool = True

    def get(self, name: str, default: Any = None) -> Any:
        """Dict-compatible accessor: a failure carries no payload."""
        return self.to_dict().get(name, default)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def is_failure(payload: Any) -> bool:
    """True when an engine result is a :class:`WindowFailure`."""
    return isinstance(payload, WindowFailure)


def _default_cell_value(payloads: Tuple[Any, ...]) -> float:
    """Interim estimator value of one cell for adaptive scheduling:
    total simulated cycles (0 for untimed/failed windows)."""
    return float(sum((payload.get("cycles") or 0) for payload in payloads))


@dataclass
class PlanRun:
    """The result of one planned population execution.

    ``cells`` is the selected subset in population (declaration)
    order; ``payloads`` maps each selected cell id to its payload
    tuple, one payload per spec, in the cell's spec order.  Reducers
    consume this instead of a flat payload list.
    """

    population: Any                      # stats.WindowPopulation
    plan: Optional[Any]                  # stats.SamplingPlan | None
    cells: List[Any]                     # selected stats.Cell objects
    payloads: Dict[str, Tuple[Any, ...]]

    @property
    def windows_population(self) -> int:
        return self.population.n_windows

    @property
    def windows_run(self) -> int:
        return sum(len(cell.specs) for cell in self.cells)

    @property
    def cells_population(self) -> int:
        return self.population.size

    @property
    def cells_run(self) -> int:
        return len(self.cells)

    @property
    def complete(self) -> bool:
        """True when every window of the population executed — the
        condition under which reducers must reproduce the exhaustive
        pipeline byte for byte."""
        return self.windows_run >= self.windows_population

    def cell_payloads(self, cell_id: str) -> Tuple[Any, ...]:
        return self.payloads[cell_id]

    def plan_record(self, value: Optional[Callable[[Tuple[Any, ...]],
                                                   float]] = None
                    ) -> Dict[str, Any]:
        """The JSONL/summary telemetry document for this run: plan
        identity, window accounting and per-stratum CI half-widths."""
        from ..stats.estimators import estimate_mean

        value_fn = value or _default_cell_value
        confidence = self.plan.confidence if self.plan is not None else 0.95
        selected = {cell.id for cell in self.cells}
        strata: Dict[str, Any] = {}
        for stratum, members in self.population.strata().items():
            run_cells = [cell for cell in members if cell.id in selected]
            values = [
                value_fn(self.payloads[cell.id]) for cell in run_cells
                if not any(is_failure(p) for p in self.payloads[cell.id])
            ]
            entry: Dict[str, Any] = {
                "cells_run": len(run_cells),
                "cells_population": len(members),
            }
            if values:
                estimate = estimate_mean(values, population=len(members),
                                         confidence=confidence)
                entry["mean"] = estimate.point
                entry["ci_half_width"] = (
                    None if estimate.half_width == float("inf")
                    else estimate.half_width)
            else:
                entry["mean"] = None
                entry["ci_half_width"] = None
            strata[stratum] = entry
        return {
            "population": self.population.name,
            "plan": None if self.plan is None else self.plan.to_dict(),
            "windows_population": self.windows_population,
            "windows_run": self.windows_run,
            "cells_population": self.cells_population,
            "cells_run": self.cells_run,
            "complete": self.complete,
            "strata": strata,
        }


def _execute(spec: WindowSpec, store: TraceStore, fast: str,
             watchdog: ValidationWatchdog
             ) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """One window's ``(payload, trace_info)`` against ``store``, its
    replay run on kernel mode ``fast`` under ``watchdog``."""
    from .windows import run_window

    return run_window(spec.kind, spec.params_dict(), store, fast=fast,
                      watchdog=watchdog)


@dataclass(frozen=True)
class _WorkerRun:
    """What a pool worker needs besides the spec: the parent engine's
    resolved :meth:`EngineConfig.to_dict` plus the per-run values that
    are not configuration."""

    config: Dict[str, Any]
    trace_root: str
    trace_enabled: bool


@functools.lru_cache(maxsize=1)
def _worker_trace_store(root: str, enabled: bool,
                        policy: str) -> TraceStore:
    """A pool worker's trace store, kept for the life of its process,
    so the handle LRU serves every window of one trace after the first
    decode."""
    return TraceStore(root, enabled=enabled, policy=policy)


@functools.lru_cache(maxsize=1)
def _worker_watchdog(every: Optional[int],
                     policy: str) -> ValidationWatchdog:
    """A pool worker's validation watchdog, kept for the life of its
    process, so its cadence counts every fast replay the worker runs."""
    return ValidationWatchdog(every, policy)


def _pool_execute(item: Tuple[int, Dict[str, Any], _WorkerRun, int]):
    """Top-level worker entry (must be picklable)."""
    index, spec_dict, run, attempt = item
    cfg = EngineConfig.from_dict(run.config)
    spec = WindowSpec.from_dict(spec_dict)
    started = time.perf_counter()
    maybe_inject(spec.cache_key, attempt, cfg.fault_rate, in_worker=True)
    store = _worker_trace_store(run.trace_root, run.trace_enabled,
                                cfg.integrity)
    payload, trace_info = _execute(
        spec, store, cfg.fast,
        _worker_watchdog(cfg.validate_every, cfg.validate_policy))
    return (index, payload, time.perf_counter() - started, os.getpid(),
            trace_info)


class ExperimentEngine:
    """Shared execution backend for every experiment in the repo.

    Configuration is one :class:`~repro.engine.config.EngineConfig`
    (``EngineConfig.from_env()`` when omitted); the live collaborators
    (cache, recorder, trace store) and the ``executor_factory`` seam
    stay constructor injection.  Every argument is keyword-only.
    """

    def __init__(
        self,
        *,
        config: Optional[EngineConfig] = None,
        cache: Optional[ResultCache] = None,
        recorder: Optional[RunRecorder] = None,
        trace_store: Optional[TraceStore] = None,
        resume_from: Optional[str] = None,
        executor_factory: Optional[Callable[[int], Any]] = None,
    ) -> None:
        if config is None:
            config = EngineConfig.from_env()
        if resume_from is not None:
            config = config.with_overrides(resume_from=str(resume_from))
        self.config = config
        #: ``config.jobs``, or the library default of 1 (serial).
        self.jobs = max(1, config.jobs or 1)
        if cache is None:
            cache = ResultCache(enabled=cache_enabled_by_env(),
                                policy=config.integrity)
        self.cache = cache
        if trace_store is None:
            trace_store = TraceStore(default_trace_dir(cache.root),
                                     enabled=trace_enabled_by_env(),
                                     policy=config.integrity)
        self.trace_store = trace_store
        self.recorder = recorder or RunRecorder()
        self._executor_factory = executor_factory
        #: Keys completed by the run being resumed (empty otherwise).
        self.resume_keys: FrozenSet[str] = self._load_resume_keys()
        #: Windows of *this* run served from cache thanks to the
        #: resumed run having completed them.
        self.resumed = 0

    def _load_resume_keys(self) -> FrozenSet[str]:
        if not self.config.resume_from:
            return frozenset()
        _meta, records = read_run_log(self.config.resume_from)
        return frozenset(completed_keys(records))

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[WindowSpec]) -> List[Dict[str, Any]]:
        """Execute every spec; payloads are returned in spec order."""
        results: List[Optional[Dict[str, Any]]] = [None] * len(specs)
        misses: List[int] = []
        resume_keys = self.resume_keys
        # Without a ledger a hit is only counted: the recorder would
        # fold its WindowRecord into these same three sums.
        count_hits = self.recorder.log_path is None
        hits = cycles = instructions = 0
        for index, spec in enumerate(specs):
            cached = self.cache.get(spec)
            if cached is None:
                misses.append(index)
                continue
            results[index] = cached
            if resume_keys and spec.cache_key in resume_keys:
                self.resumed += 1
            if count_hits:
                hits += 1
                cycles += cached.get("cycles") or 0
                instructions += cached.get("instructions") or 0
            else:
                self._record(spec, cached, cache="hit", wall_s=0.0,
                             worker=None)
        if hits:
            self.recorder.record_hits(hits, cycles, instructions)

        if misses:
            if self.jobs > 1 and len(misses) > 1:
                self._run_pool(specs, misses, results)
            else:
                self._run_serial(specs, misses, results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Plan-driven scheduling: execute a sampled subset of a window
    # population.  Selection is the plan's (deterministic, seeded);
    # execution reuses self.run() unchanged, so caching, retries,
    # fault policies and the ledger apply to sampled runs exactly as
    # to exhaustive ones.

    def run_plan(self, population, plan=None, value=None) -> PlanRun:
        """Execute ``population`` under ``plan`` (see ``docs/sampling.md``).

        ``plan=None`` is the zero-overhead exhaustive path: every cell
        runs, no telemetry is written, and the flattened execution
        order equals ``population.specs()`` — byte-identical to the
        pre-sampling pipeline.  An explicit plan additionally writes a
        ``plan`` record to the JSONL ledger (and the ``--json``
        summary) with windows_run/windows_population and per-stratum
        CI half-widths.  ``adaptive`` plans schedule the tail of their
        budget from interim estimator variance; ``value`` maps one
        cell's payload tuple to the scalar being estimated (default:
        total cycles).
        """
        if plan is not None and plan.mode == "adaptive":
            cells, payloads = self._run_adaptive(population, plan, value)
        else:
            cells = (population.enumerate() if plan is None
                     else population.selection(plan))
            payloads = self._run_cells(cells)
        result = PlanRun(population=population, plan=plan, cells=cells,
                         payloads=payloads)
        if plan is not None:
            self.recorder.write_plan(result.plan_record(value))
        return result

    def _run_cells(self, cells) -> Dict[str, Tuple[Any, ...]]:
        """Run every cell's specs in one engine batch; split the flat
        payload list back per cell."""
        specs = [spec for cell in cells for spec in cell.specs]
        flat = self.run(specs)
        payloads: Dict[str, Tuple[Any, ...]] = {}
        position = 0
        for cell in cells:
            payloads[cell.id] = tuple(flat[position:position
                                           + len(cell.specs)])
            position += len(cell.specs)
        return payloads

    def _run_adaptive(self, population, plan, value=None):
        """Variance-driven scheduling: seed every stratum, then spend
        the remaining budget one cell at a time on the stratum whose
        interim confidence interval is widest."""
        from ..stats.estimators import estimate_mean

        value_fn = value or _default_cell_value
        all_cells = population.enumerate()
        budget = plan.target_cells(population.size)
        ranked = {
            stratum: sorted(members,
                            key=lambda c: (plan.rank(c.id), c.id))
            for stratum, members in population.strata().items()
        }
        payloads: Dict[str, Tuple[Any, ...]] = {}

        def run_batch(batch) -> None:
            payloads.update(self._run_cells(
                [cell for cell in batch if cell.id not in payloads]))

        # Seed batch: every mandatory cell plus (up to) two ranked
        # cells per stratum, so each stratum has enough samples for a
        # finite interim interval.
        seeds = [cell for cell in all_cells if cell.mandatory]
        for members in ranked.values():
            seeds.extend([cell for cell in members
                          if not cell.mandatory][:2])
        seen = set()
        seeds = [cell for cell in seeds
                 if not (cell.id in seen or seen.add(cell.id))]
        run_batch(seeds[:budget])

        while len(payloads) < budget:
            next_cell = None
            widest = None
            for stratum, members in ranked.items():
                remaining = [cell for cell in members
                             if cell.id not in payloads]
                if not remaining:
                    continue
                values = [
                    value_fn(payloads[cell.id]) for cell in members
                    if cell.id in payloads
                    and not any(is_failure(p) for p in payloads[cell.id])
                ]
                half_width = (
                    estimate_mean(values, population=len(members),
                                  confidence=plan.confidence).half_width
                    if values else float("inf"))
                if widest is None or half_width > widest:
                    widest = half_width
                    next_cell = remaining[0]
            if next_cell is None:
                break
            run_batch([next_cell])

        selected = [cell for cell in all_cells if cell.id in payloads]
        return selected, payloads

    # ------------------------------------------------------------------
    # Serial backend: in-process, spec order, with the same retry /
    # failure-policy semantics as the pool (timeouts excepted — a
    # window cannot be pre-empted from inside its own process).
    # Windows that share one functional trace and differ only in
    # timing config run as one group (see
    # :func:`repro.engine.windows.run_window_group`), which builds the
    # workload and loads or records the trace once; a group failure of
    # any kind falls back to the per-window path, which owns retries
    # and the failure policy, and is counted in the run summary's
    # ``group_fallbacks``.

    def _serial_schedule(self, specs: Sequence[WindowSpec],
                         misses: List[int]) -> List[List[int]]:
        """Group miss indices by functional key, in order of each
        group's first appearance.  Without an enabled trace store every
        window records its own stream; under fault injection (keyed per
        window/attempt) the schedule and injection points stay per
        window.  Both keep every window a singleton."""
        if not self.trace_store.enabled or self.config.fault_rate != 0:
            return [[index] for index in misses]
        groups: Dict[Tuple[str, str], List[int]] = {}
        for index in misses:
            spec = specs[index]
            key = (spec.kind, functional_key(spec.kind, spec.params_dict()))
            groups.setdefault(key, []).append(index)
        return list(groups.values())

    def _run_serial_group(self, specs: Sequence[WindowSpec],
                          members: List[int],
                          results: List[Optional[Dict[str, Any]]],
                          watchdog: ValidationWatchdog) -> bool:
        """Try one functional-key group; True when every member was
        completed (recorded + cached)."""
        from .windows import run_window_group

        kind = specs[members[0]].kind
        started = time.perf_counter()
        try:
            batch = run_window_group(
                kind, [specs[index].params_dict() for index in members],
                self.trace_store, fast=self.config.fast, watchdog=watchdog)
        except Exception:
            self.recorder.record_group_fallback()
            return False  # per-window path re-runs with full retry policy
        wall = (time.perf_counter() - started) / len(members)
        for index, (payload, trace_info) in zip(members, batch):
            results[index] = payload
            self.cache.put(specs[index], payload)
            self._record(specs[index], payload, cache="miss",
                         wall_s=wall, worker=os.getpid(),
                         trace_info=trace_info, attempts=1)
        return True

    def _run_serial(self, specs: Sequence[WindowSpec], misses: List[int],
                    results: List[Optional[Dict[str, Any]]]) -> None:
        # One watchdog per run: its cadence counts this run's replays.
        watchdog = ValidationWatchdog(self.config.validate_every,
                                      self.config.validate_policy)
        for members in self._serial_schedule(specs, misses):
            if len(members) > 1 and self._run_serial_group(
                    specs, members, results, watchdog):
                continue
            for index in members:
                self._run_serial_one(specs[index], index, results, watchdog)

    def _run_serial_one(self, spec: WindowSpec, index: int,
                        results: List[Optional[Dict[str, Any]]],
                        watchdog: ValidationWatchdog) -> None:
        attempt = 0
        while True:
            started = time.perf_counter()
            try:
                maybe_inject(spec.cache_key, attempt,
                             self.config.fault_rate, in_worker=False)
                payload, trace_info = _execute(spec, self.trace_store,
                                               self.config.fast, watchdog)
            except Exception as exc:
                if self._on_failure(spec, attempt, exc) == "retry":
                    attempt += 1
                    continue
                results[index] = self._skip(spec, attempt, exc)
                break
            wall = time.perf_counter() - started
            results[index] = payload
            self.cache.put(spec, payload)
            self._record(spec, payload, cache="miss",
                         wall_s=wall, worker=os.getpid(),
                         trace_info=trace_info,
                         attempts=attempt + 1)
            break

    # ------------------------------------------------------------------
    # Pool backend: submit + wait with per-window deadlines.  A broken
    # pool (crashed worker) or an expired deadline (hung worker)
    # requeues the in-flight windows and rebuilds the executor; every
    # completed window is cached immediately, so an interrupt at any
    # point loses at most the windows still in flight.

    def _run_pool(self, specs: Sequence[WindowSpec], misses: List[int],
                  results: List[Optional[Dict[str, Any]]]) -> None:
        cfg = self.config
        worker_run = _WorkerRun(config=cfg.to_dict(),
                                trace_root=str(self.trace_store.root),
                                trace_enabled=self.trace_store.enabled)
        workers = min(self.jobs, len(misses))
        queue = deque((index, 0) for index in misses)
        inflight: Dict[Any, Tuple[int, int, Optional[float]]] = {}
        pool = self._new_pool(workers)
        try:
            while queue or inflight:
                rebuild = False
                while queue and len(inflight) < workers:
                    index, attempt = queue.popleft()
                    item = (index, specs[index].to_dict(), worker_run,
                            attempt)
                    try:
                        future = pool.submit(_pool_execute, item)
                    except BrokenExecutor:
                        queue.appendleft((index, attempt))
                        rebuild = True
                        break
                    deadline = (None if cfg.timeout is None
                                else time.monotonic() + cfg.timeout)
                    inflight[future] = (index, attempt, deadline)

                if inflight and not rebuild:
                    wait_s = None
                    deadlines = [d for (_, _, d) in inflight.values()
                                 if d is not None]
                    if deadlines:
                        wait_s = max(0.0,
                                     min(deadlines) - time.monotonic())
                    done, _ = futures.wait(
                        list(inflight), timeout=wait_s,
                        return_when=futures.FIRST_COMPLETED)
                    for future in done:
                        index, attempt, _ = inflight.pop(future)
                        try:
                            (_, payload, wall,
                             worker, trace_info) = future.result()
                        except Exception as exc:
                            if isinstance(exc, BrokenExecutor):
                                rebuild = True
                            self._pool_failure(specs[index], index, attempt,
                                               exc, queue, results)
                        else:
                            results[index] = payload
                            self.cache.put(specs[index], payload)
                            self._record(specs[index], payload, cache="miss",
                                         wall_s=wall, worker=worker,
                                         trace_info=trace_info,
                                         attempts=attempt + 1)
                    if cfg.timeout is not None:
                        now = time.monotonic()
                        expired = [f for f, (_, _, d) in inflight.items()
                                   if d is not None and d <= now]
                        for future in expired:
                            index, attempt, _ = inflight.pop(future)
                            future.cancel()
                            # A hung worker cannot be pre-empted through
                            # the executor; abandon the whole pool.
                            rebuild = True
                            self._pool_failure(
                                specs[index], index, attempt,
                                WindowTimeout(
                                    f"window {specs[index].short_key} "
                                    f"exceeded {cfg.timeout}s "
                                    f"(attempt {attempt + 1})"),
                                queue, results)

                if rebuild:
                    for future, (index, attempt, _) in inflight.items():
                        future.cancel()
                        queue.append((index, attempt))
                    inflight.clear()
                    self._teardown_pool(pool)
                    if queue:
                        pool = self._new_pool(min(workers, len(queue)))
        finally:
            self._teardown_pool(pool)

    def _new_pool(self, workers: int):
        if self._executor_factory is not None:
            return self._executor_factory(workers)
        return ProcessPoolExecutor(max_workers=max(1, workers))

    @staticmethod
    def _teardown_pool(pool) -> None:
        """Shut a pool down without waiting on (possibly hung) workers."""
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # an injected executor without the kwarg
            pool.shutdown(wait=False)
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            if process.is_alive():
                process.terminate()

    # ------------------------------------------------------------------
    # Failure policy.

    def _on_failure(self, spec: WindowSpec, attempt: int,
                    exc: BaseException) -> str:
        """Decide what a failed attempt becomes: ``"retry"``,
        ``"skip"``, or a raised exception (fail the run)."""
        cfg = self.config
        transient = isinstance(exc, _TRANSIENT_ERRORS)
        if cfg.failure_policy != "raise" and transient \
                and attempt < cfg.retries:
            delay = cfg.backoff * (2 ** attempt)
            if delay > 0:
                time.sleep(delay)
            return "retry"
        if cfg.failure_policy == "skip":
            return "skip"
        raise exc

    def _pool_failure(self, spec: WindowSpec, index: int, attempt: int,
                      exc: BaseException, queue: deque,
                      results: List[Optional[Dict[str, Any]]]) -> None:
        if self._on_failure(spec, attempt, exc) == "retry":
            queue.append((index, attempt + 1))
        else:
            results[index] = self._skip(spec, attempt, exc)

    def _skip(self, spec: WindowSpec, attempt: int,
              exc: BaseException) -> WindowFailure:
        failure = WindowFailure(key=spec.cache_key, kind=spec.kind,
                                label=spec.label(), error=repr(exc),
                                attempts=attempt + 1)
        self._record(spec, failure, cache="failed", wall_s=0.0, worker=None,
                     attempts=attempt + 1, error=failure.error)
        return failure

    # ------------------------------------------------------------------

    def _record(self, spec: WindowSpec, payload: Any,
                cache: str, wall_s: float, worker: Optional[int],
                trace_info: Optional[Dict[str, Any]] = None,
                attempts: Optional[int] = None,
                error: Optional[str] = None) -> None:
        trace_info = trace_info or {}
        if trace_info.get("validation") == "divergence":
            # Typed evidence line next to the window record, so the
            # ledger shows *which* counters the fast path got wrong.
            self.recorder.write_validation({
                "key": spec.cache_key,
                "label": spec.label(),
                "policy": trace_info.get("validation_policy"),
                "mismatches": trace_info.get("validation_mismatches"),
            })
        self.recorder.record(WindowRecord(
            key=spec.cache_key,
            kind=spec.kind,
            label=spec.label(),
            cache=cache,
            wall_s=round(wall_s, 6),
            worker=worker,
            cycles=payload.get("cycles"),
            instructions=payload.get("instructions"),
            ts=time.time(),
            trace=trace_info.get("trace"),
            trace_bytes=trace_info.get("trace_bytes"),
            functional_steps=trace_info.get("functional_steps"),
            timing_path=trace_info.get("timing_path"),
            timing_kernel=trace_info.get("timing_kernel"),
            timing_route=trace_info.get("timing_route"),
            replay_records_per_s=trace_info.get("replay_records_per_s"),
            attempts=attempts,
            error=error,
            validation=trace_info.get("validation"),
        ))

    def summary(self) -> Dict[str, Any]:
        return dict(self.recorder.summary(), resumed=self.resumed,
                    integrity={"results": self.cache.integrity.as_dict(),
                               "traces": self.trace_store.integrity.as_dict()},
                    stores={"results": self.cache.tier_counters(),
                            "traces": self.trace_store.tier_counters()})


# ----------------------------------------------------------------------
# Module-level default engine: experiments use it unless handed one
# explicitly; the CLI configures it from flags/environment.

_default_engine: Optional[ExperimentEngine] = None


def get_engine() -> ExperimentEngine:
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine()
    return _default_engine


def set_engine(engine: Optional[ExperimentEngine]) -> None:
    global _default_engine
    _default_engine = engine


def run_windows(specs: Sequence[WindowSpec],
                engine: Optional[ExperimentEngine] = None
                ) -> List[Dict[str, Any]]:
    """Run specs on ``engine`` (or the process-wide default)."""
    return (engine or get_engine()).run(specs)


def run_population(population, plan=None,
                   engine: Optional[ExperimentEngine] = None,
                   value=None) -> PlanRun:
    """Run a window population under a sampling plan on ``engine``
    (or the process-wide default) — see :meth:`ExperimentEngine.run_plan`."""
    return (engine or get_engine()).run_plan(population, plan=plan,
                                             value=value)
