"""Spans around calls into each layer of ``repro``, for the traced pass.

The benchmark does not change the program.  :func:`install` wraps the
public entry points of each layer (and the few private seams named
below) from the outside, so every call records one span: a name, a
start and end time (``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so spans of the server process and of
the load generator share one time base), the span that caused it, and
a group id shared by every span of one window or one served request.
Spans stay in memory and are written once, when the run ends
(:meth:`Tracer.dump`).

Self time is a span's duration minus the part of it that its children
cover; :func:`layer_metrics` turns a span list into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: The innermost open span of the running thread or asyncio task.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Span:
    __slots__ = ("id", "parent", "name", "group", "t0", "t1", "attrs")

    def __init__(self, id: str, parent: Optional[str], name: str,
                 group: Optional[str], t0: float) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.group = group
        self.t0 = t0
        self.t1: Optional[float] = None
        self.attrs: Dict[str, Any] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "group": self.group, "t0": self.t0, "t1": self.t1,
                "attrs": self.attrs}


class Tracer:
    """An in-memory span recorder.  ``prefix`` keeps span ids unique
    when the spans of several processes are merged."""

    def __init__(self, prefix: str = "s") -> None:
        self.prefix = prefix
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Open span per in-flight serve computation, keyed by the
        #: request key: the hand-off from the event loop to the worker
        #: thread does not carry context variables.
        self.links: Dict[str, Span] = {}

    def new_group(self) -> str:
        with self._lock:
            return f"{self.prefix}{next(self._ids)}"

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             group: Optional[str] = None):
        if parent is None:
            parent = _CURRENT.get()
        if group is None and parent is not None:
            group = parent.group
        with self._lock:
            span = Span(f"{self.prefix}{next(self._ids)}",
                        parent.id if parent is not None else None,
                        name, group, time.perf_counter())
            self.spans.append(span)
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            _CURRENT.reset(token)

    def dump(self, path) -> None:
        """Write every closed span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span.t1 is not None:
                    handle.write(json.dumps(span.to_dict()))
                    handle.write("\n")


def load_spans(path) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Installing the wrappers.


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every loaded ``repro`` module name, registry dict entry and
    registry closure cell that holds ``original`` at ``wrapped``, so
    ``from x import f`` aliases and builder registries are traced too."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for entry_key, entry in list(value.items()):
                    if entry is original:
                        value[entry_key] = wrapped
                    if entry is original or entry is wrapped:
                        continue  # a registry shared by several modules
                    for cell in getattr(entry, "__closure__", None) or ():
                        if cell.cell_contents is original:
                            cell.cell_contents = wrapped


def _wrap(tracer: Tracer, name: str, fn: Callable,
          after: Optional[Callable] = None,
          group: bool = False) -> Callable:
    """A traced version of ``fn``; ``after(span, result, args)`` may
    annotate the span; ``group`` starts a new window group."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            with tracer.span(name) as span:
                result = await fn(*args, **kwargs)
                if after is not None:
                    after(span, result, args)
                return result
        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, group=tracer.new_group() if group
                         else None) as span:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, result, args)
            return result
    return traced


def _patch_function(tracer: Tracer, module, attr: str, name: str,
                    **options) -> None:
    original = getattr(module, attr)
    wrapped = _wrap(tracer, name, original, **options)
    setattr(module, attr, wrapped)
    _rebind(original, wrapped)


def _patch_method(tracer: Tracer, cls, attr: str, name: str,
                  **options) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(
            _wrap(tracer, name, raw.__func__, **options)))
    else:
        setattr(cls, attr, _wrap(tracer, name, raw, **options))


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of ``repro`` (idempotence is not
    needed: each process installs once, before its traced work)."""
    from repro import api
    import repro.experiments  # noqa: F401 - loads estimator aliases
    from repro.engine import cache as engine_cache
    from repro.engine import core as engine_core
    from repro.engine import tracestore, windows
    from repro.serve import http as serve_http
    from repro.serve import service as serve_service
    from repro.sim import trace_io
    from repro.stats import estimators, plan
    from repro.timing import fastpath, fastpath_vec, runner

    # timing ------------------------------------------------------------
    def replay_info(span, result, args):
        info = runner._last_replay_info or {}
        span.attrs["records"] = int(info.get("replay_records") or 0)
        span.attrs["windows"] = len(result) if isinstance(result, list) else 1

    _patch_function(tracer, runner, "replay_window", "timing.replay",
                    after=replay_info)
    _patch_function(tracer, runner, "replay_window_batch", "timing.replay",
                    after=replay_info)

    def vector_outcome(span, result, args):
        span.attrs["delegated"] = fastpath_vec.last_kernel == "loop"

    _patch_function(tracer, fastpath_vec, "run_fastpath_vec",
                    "timing.vector", after=vector_outcome)
    _patch_function(tracer, fastpath, "run_fastpath", "timing.loop")
    _patch_function(tracer, runner, "_replay_golden", "timing.golden")

    # sim + trace_io ----------------------------------------------------
    def recorded(span, trace, args):
        span.attrs["steps"] = len(trace)
        span.attrs["bytes"] = trace.nbytes

    _patch_function(tracer, runner, "record_window", "sim.record",
                    after=recorded)
    _patch_method(tracer, trace_io.RecordedTrace, "columns",
                  "trace_io.decode")

    # workloads (+jvm): the window materials builders ---------------------
    for builder in list(windows.MATERIALS.values()):
        _patch_function(tracer, windows, builder.__name__, "workloads.build")

    # store -------------------------------------------------------------
    def hit(span, result, args):
        span.attrs["hit"] = result is not None

    _patch_method(tracer, engine_cache.ResultCache, "get",
                  "store.results.get", after=hit)
    _patch_method(tracer, engine_cache.ResultCache, "put",
                  "store.results.put")
    _patch_method(tracer, tracestore.TraceStore, "load", "store.traces.load",
                  after=hit)
    _patch_method(tracer, tracestore.TraceStore, "record",
                  "store.traces.record")

    # engine ------------------------------------------------------------
    _patch_method(tracer, engine_core.ExperimentEngine, "run", "engine.run")
    _patch_method(tracer, engine_core.ExperimentEngine, "run_plan",
                  "engine.plan")
    _patch_function(tracer, windows, "run_window", "engine.window",
                    group=True)
    _patch_function(tracer, windows, "run_window_group", "engine.window",
                    group=True)

    # stats -------------------------------------------------------------
    _patch_method(tracer, plan.SamplingPlan, "select", "stats.plan")
    _patch_method(tracer, plan.SamplingPlan, "parse", "stats.plan")
    for estimator in ("estimate_mean", "stratified_estimate",
                      "matched_pair_estimate"):
        _patch_function(tracer, estimators, estimator, "stats.estimate")

    # experiments: the api.run_* façade (reducers + formatting) ------------
    for attr in api.__all__:
        if attr.startswith("run_") and attr != "run_windows":
            _patch_function(tracer, api, attr, "experiments.run")

    # serve -------------------------------------------------------------
    original_figure = serve_http.ReproServer._figure

    @functools.wraps(original_figure)
    async def figure(self, method, path, query, headers, body):
        with tracer.span("serve.handle",
                         group=headers.get(REQUEST_HEADER.lower())):
            return await original_figure(self, method, path, query,
                                         headers, body)

    serve_http.ReproServer._figure = figure
    _patch_method(tracer, serve_service.SimulationService, "submit",
                  "serve.submit")

    original_execute = serve_service.SimulationService._execute

    @functools.wraps(original_execute)
    async def execute(self, key, command, params):
        tracer.links[key] = _CURRENT.get()
        try:
            return await original_execute(self, key, command, params)
        finally:
            tracer.links.pop(key, None)

    serve_service.SimulationService._execute = execute

    original_run_sync = serve_service.SimulationService._run_sync

    @functools.wraps(original_run_sync)
    def run_sync(self, command, params):
        parent = tracer.links.get(serve_service.request_key(command, params))
        with tracer.span("serve.run", parent=parent):
            return original_run_sync(self, command, params)

    serve_service.SimulationService._run_sync = run_sync


#: Header carrying the load generator's request id, which becomes the
#: group id of every server-side span of that request.
REQUEST_HEADER = "X-Perfbench-Request"


# ----------------------------------------------------------------------
# Analysis.


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        t0, t1 = span["t0"], span["t1"]
        covered = 0.0
        cursor = t0
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["t0"]):
            lo = max(child["t0"], cursor)
            hi = min(child["t1"], t1)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (t1 - t0) - covered
    return result


def check_tree(spans: List[Dict[str, Any]], slack: float = 1e-6
               ) -> List[str]:
    """Problems with the span tree: a parent that does not exist, or a
    child outside its parent's interval.  Empty when well formed."""
    by_id = {span["id"]: span for span in spans}
    problems = []
    for span in spans:
        if span["t1"] is None or span["t1"] < span["t0"]:
            problems.append(f"{span['id']} {span['name']}: bad interval")
        parent_id = span["parent"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"{span['id']} {span['name']}: parent "
                            f"{parent_id} missing")
        elif (span["t0"] < parent["t0"] - slack
              or span["t1"] > parent["t1"] + slack):
            problems.append(f"{span['id']} {span['name']}: outside parent "
                            f"{parent_id} {parent['name']}")
    return problems


#: Per-layer metrics that ``layer_metrics`` reports, with units, in
#: ``BENCHMARK.json`` order.
PER_LAYER = (
    ("timing.replay_s", "s"), ("timing.replays", "count"),
    ("timing.records_replayed", "count"),
    ("timing.replay_records_per_s", "1/s"),
    ("timing.vector_attempts", "count"), ("timing.vector_admit_ratio", "ratio"),
    ("timing.vector_s", "s"), ("timing.vector_wasted_s", "s"),
    ("timing.loop_s", "s"), ("timing.golden_replays", "count"),
    ("sim.record_s", "s"), ("sim.functional_steps", "count"),
    ("sim.steps_per_s", "1/s"),
    ("trace_io.decode_s", "s"), ("trace_io.encoded_bytes", "bytes"),
    ("trace_io.bytes_per_record", "bytes"),
    ("workloads.build_s", "s"), ("workloads.builds", "count"),
    ("store.results.get_s", "s"), ("store.results.hit_ratio", "ratio"),
    ("store.results.put_s", "s"), ("store.results.puts", "count"),
    ("store.traces.load_s", "s"), ("store.traces.hit_ratio", "ratio"),
    ("store.traces.record_self_s", "s"),
    ("engine.run_s", "s"), ("engine.self_s", "s"),
    ("engine.windows", "count"), ("engine.cache_hits", "count"),
    ("stats.plan_s", "s"), ("stats.estimate_s", "s"),
    ("experiments.reduce_s", "s"),
    ("serve.submit_s", "s"), ("serve.queue_wait_s", "s"),
    ("serve.http_s", "s"), ("serve.coalesced_ratio", "ratio"),
    ("serve.shed", "count"), ("serve.errors", "count"),
    ("trace_overhead_ratio", "ratio"), ("unattributed_s", "s"),
)

#: Disjoint self-time metrics compared when naming the largest layer
#: (``timing.vector_s`` is left out: it contains the wasted part).
SELF_TIME_METRICS = (
    "timing.vector_wasted_s", "timing.loop_s",
    "sim.record_s", "trace_io.decode_s", "workloads.build_s",
    "store.results.get_s", "store.results.put_s", "store.traces.load_s",
    "store.traces.record_self_s", "engine.self_s", "stats.plan_s",
    "stats.estimate_s", "experiments.reduce_s",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: The span of a speed probe (``probe.py``) that the cold worker takes
#: between windows, inside the engine's run: not a layer of the program.
PROBE = "bench.probe"


def layer_metrics(spans: List[Dict[str, Any]], operations: int,
                  wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced phase, each per operation (a
    command on the cold workloads, a request on ``serve-warm``);
    ratios are ratios of totals.  ``wall_s`` is the phase's summed
    operation time, against which ``unattributed_s`` is taken.  The
    ledger/statsz counts, the serve ratios and ``trace_overhead_ratio``
    are filled in by the caller."""
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    total: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0.0) + value

    for span in spans:
        name, attrs = span["name"], span["attrs"]
        duration = span["t1"] - span["t0"]
        mine = own[span["id"]]
        add("self:" + name, mine)
        parent = by_id.get(span["parent"])
        parent_name = parent["name"] if parent is not None else ""
        if name == "timing.replay":
            if not parent_name.startswith("timing.replay"):
                add("timing.replay_s", duration)
            add("timing.replays", attrs.get("windows", 1))
            add("timing.records_replayed", attrs.get("records", 0))
        elif name == "timing.vector":
            add("timing.vector_attempts", 1)
            if attrs.get("delegated"):
                add("timing.vector_wasted_s", mine)
            else:
                add("timing.vector_admitted", 1)
        elif name == "timing.golden":
            add("timing.golden_replays", 1)
        elif name == "sim.record":
            add("sim.record_s", duration)
            add("sim.functional_steps", attrs.get("steps", 0))
            add("trace_io.encoded_bytes", attrs.get("bytes", 0))
        elif name == "workloads.build":
            add("workloads.builds", 1)
        elif name == "store.results.get":
            add("store.results.gets", 1)
            add("store.results.hits", int(bool(attrs.get("hit"))))
        elif name == "store.results.put":
            add("store.results.puts", 1)
        elif name == "store.traces.load":
            add("store.traces.loads", 1)
            add("store.traces.hits", int(bool(attrs.get("hit"))))
        elif name.startswith("engine.") and not _has_ancestor(
                span, by_id, "engine."):
            add("engine.run_s", duration)
        elif name == "serve.submit":
            add("serve.submit_s", duration)
            # Everything in submit but the façade call is waiting:
            # admission, the slot semaphore, the executor hand-off and
            # the engine lock (or, coalesced, the shared computation).
            add("serve.queue_wait_s", duration - sum(
                run["t1"] - run["t0"] for run in _descendants(
                    span, children, "experiments.run")))
        elif name == "serve.client":
            submits = _descendants(span, children, "serve.submit")
            add("serve.http_s", duration - sum(
                sub["t1"] - sub["t0"] for sub in submits))

    get = total.get
    metrics = {
        "timing.replay_s": get("timing.replay_s", 0.0),
        "timing.replays": get("timing.replays", 0.0),
        "timing.records_replayed": get("timing.records_replayed", 0.0),
        "timing.replay_records_per_s": _ratio(
            get("timing.records_replayed", 0.0), get("timing.replay_s", 0.0)),
        "timing.vector_attempts": get("timing.vector_attempts", 0.0),
        "timing.vector_admit_ratio": _ratio(
            get("timing.vector_admitted", 0.0),
            get("timing.vector_attempts", 0.0)),
        "timing.vector_s": get("self:timing.vector", 0.0),
        "timing.vector_wasted_s": get("timing.vector_wasted_s", 0.0),
        "timing.loop_s": get("self:timing.loop", 0.0),
        "timing.golden_replays": get("timing.golden_replays", 0.0),
        "sim.record_s": get("sim.record_s", 0.0),
        "sim.functional_steps": get("sim.functional_steps", 0.0),
        "sim.steps_per_s": _ratio(get("sim.functional_steps", 0.0),
                                  get("sim.record_s", 0.0)),
        "trace_io.decode_s": get("self:trace_io.decode", 0.0),
        "trace_io.encoded_bytes": get("trace_io.encoded_bytes", 0.0),
        "trace_io.bytes_per_record": _ratio(
            get("trace_io.encoded_bytes", 0.0),
            get("sim.functional_steps", 0.0)),
        "workloads.build_s": get("self:workloads.build", 0.0),
        "workloads.builds": get("workloads.builds", 0.0),
        "store.results.get_s": get("self:store.results.get", 0.0),
        "store.results.hit_ratio": _ratio(get("store.results.hits", 0.0),
                                          get("store.results.gets", 0.0)),
        "store.results.put_s": get("self:store.results.put", 0.0),
        "store.results.puts": get("store.results.puts", 0.0),
        "store.traces.load_s": get("self:store.traces.load", 0.0),
        "store.traces.hit_ratio": _ratio(get("store.traces.hits", 0.0),
                                         get("store.traces.loads", 0.0)),
        "store.traces.record_self_s": get("self:store.traces.record", 0.0),
        "engine.run_s": get("engine.run_s", 0.0),
        "engine.self_s": sum(get("self:" + name, 0.0) for name in (
            "engine.run", "engine.plan", "engine.window")),
        "stats.plan_s": get("self:stats.plan", 0.0),
        "stats.estimate_s": get("self:stats.estimate", 0.0),
        "experiments.reduce_s": get("self:experiments.run", 0.0),
        "serve.submit_s": get("serve.submit_s", 0.0),
        "serve.queue_wait_s": get("serve.queue_wait_s", 0.0),
        "serve.http_s": get("serve.http_s", 0.0),
        # The load generator's client span is not a layer of the
        # program: on serve-warm its self time (connect, send, the
        # server's socket read and write) stays unattributed.  Probe
        # time is not in ``wall_s``.
        "unattributed_s": wall_s - sum(
            own[span["id"]] for span in spans
            if span["name"] not in ("serve.client", PROBE)),
    }
    per_op = max(1, operations)
    for key in metrics:
        if not _is_ratio(key):
            metrics[key] /= per_op
    return metrics


def _is_ratio(key: str) -> bool:
    return key.endswith(("_ratio", "_per_s", "bytes_per_record"))


def _descendants(span, children, name: str) -> List[Dict[str, Any]]:
    """Spans called ``name`` below ``span`` (not below each other)."""
    found, frontier = [], [span["id"]]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            if child["name"] == name:
                found.append(child)
            else:
                frontier.append(child["id"])
    return found


def _has_ancestor(span, by_id, prefix: str) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"].startswith(prefix):
            return True
        parent = by_id.get(parent["parent"])
    return False


def largest_self_time(metrics: Dict[str, float]) -> str:
    return max(SELF_TIME_METRICS, key=lambda key: metrics.get(key, 0.0))
