"""Structured run artifacts: the machine-readable bench trajectory.

Every window the engine executes (or serves from cache) produces one
:class:`WindowRecord` — spec identity, wall time, cycles/instructions
where the window carries timing stats, cache hit/miss/failed, attempt
count and the worker that ran it.  A :class:`RunRecorder` folds each
record into the aggregate counters of its ``--json`` summary and
optionally appends it as one JSONL line to a log file
(``BENCH_*.jsonl``), which is what CI uploads as the run artifact.

The log doubles as the engine's resume ledger: the CLI writes one
``run_meta`` line (command, argv, resolved engine config) at the top
of each run, and :func:`read_run_log` / :func:`completed_keys` parse
the file back — tolerating a torn final line from an interrupted run —
so ``repro resume <run.jsonl>`` can replay the original invocation and
execute only the windows without durably cached results.

Every line carries a ``crc`` field — the CRC32 of its canonical
serialisation (``docs/integrity.md``) — so the reader distinguishes a
*torn* line (unparseable tail of a killed run: expected, skipped with
a note) from a *bit-rotted* one (parseable JSON whose checksum no
longer matches: also skipped, but reported as corruption).  Either way
a damaged line is never trusted: ``repro resume`` re-executes its
window instead of mis-counting it as complete.  Lines without ``crc``
(pre-integrity ledgers) stay readable.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from .integrity import LedgerReport, check_ledger_line, ledger_line_crc

#: ``record_type`` of the run-level metadata line in a JSONL log.
RUN_META_TYPE = "run_meta"

#: ``record_type`` of a fast-path validation divergence line.
VALIDATION_TYPE = "validation"

#: ``record_type`` of a sampling-plan telemetry line (one per
#: explicitly planned :meth:`~repro.engine.core.ExperimentEngine.run_plan`
#: call: the plan, windows_run/windows_population and per-stratum CI
#: half-widths).
PLAN_TYPE = "plan"

#: Plan records :meth:`RunRecorder.summary` keeps, the most recent
#: last; ``plan_modes`` counts every plan.
PLAN_HISTORY = 8


@dataclass
class WindowRecord:
    """One executed (or cache-served) window."""

    key: str
    kind: str
    label: str
    cache: str            # "hit" | "miss"
    wall_s: float
    worker: Optional[int]  # pid of the executing worker; None for hits
    cycles: Optional[int]
    instructions: Optional[int]
    ts: float
    #: Trace-store usage for timed windows: "hit" (replayed a stored
    #: functional stream), "miss" (recorded it into the store), "off"
    #: (no enabled store: recorded in memory, then replayed), or None
    #: (untimed window or result-cache hit).
    trace: Optional[str] = None
    #: Encoded size of the window's functional trace, where one exists.
    trace_bytes: Optional[int] = None
    #: Functional ``Machine.step()`` calls this window actually paid —
    #: 0 when it replayed a trace it did not record (a store hit, or a
    #: later window of its config group), the full stream length when
    #: it recorded one ("miss" or "off").  The record/replay speedup
    #: criterion is audited from this.
    functional_steps: Optional[int] = None
    #: Which timing implementation ran the window: "fast" (the
    #: columnar replay kernels), "golden" (per-record replay loop), or None
    #: (untimed window or result-cache hit).
    timing_path: Optional[str] = None
    #: The kernel that actually replayed the window: "vector", "loop"
    #: or "golden" (None where ``timing_path`` is None).
    timing_kernel: Optional[str] = None
    #: Why the vector kernel did or did not replay it: "admitted",
    #: "dense" / "shared_lfsr" (refused by admission) or "envelope"
    #: (delegated by the solver); None when the vector kernel was not
    #: the selected kernel.
    timing_route: Optional[str] = None
    #: Replay throughput in trace records per second (replays only).
    replay_records_per_s: Optional[float] = None
    #: Execution attempts this window took (1 = first try; ``None`` on
    #: cache hits, which execute nothing).
    attempts: Optional[int] = None
    #: Last error, for ``cache == "failed"`` placeholder records.
    error: Optional[str] = None
    #: Fast-path watchdog outcome for this window: "pass" (golden
    #: cross-check matched), "divergence" (it did not — see the typed
    #: ``validation`` record logged alongside), or None (not sampled).
    validation: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return shallow_asdict(self)


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def shallow_asdict(obj: Any) -> Dict[str, Any]:
    """:func:`dataclasses.asdict` without the recursion: the same keys
    in the same order, each value as it is (no ``deepcopy``).  Equal
    to ``asdict`` for a dataclass whose fields hold only scalars; a
    caller converts any nested field itself."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


#: Categorical :class:`WindowRecord` fields whose values the recorder
#: tallies.
_TALLIED = ("cache", "trace", "timing_path", "timing_kernel",
            "timing_route", "validation")


class RunRecorder:
    """Aggregates window records; optionally streams them as JSONL.

    The recorder keeps running aggregates only — the fields of
    :meth:`summary` — so a long-lived process (``repro serve``) holds
    the same few counters after a million windows as after one, and
    the last :data:`PLAN_HISTORY` plan records.  The JSONL ledger is
    the per-window record.
    """

    def __init__(self, log_path: Optional[pathlib.Path] = None) -> None:
        self.log_path = pathlib.Path(log_path) if log_path else None
        self.plans: Deque[Dict[str, Any]] = deque(maxlen=PLAN_HISTORY)
        self._plan_modes: Counter = Counter()
        self.meta: Optional[Dict[str, Any]] = None
        self._started = time.time()
        self._windows = self._retries = self._wall_s = 0
        self._group_fallbacks = 0
        self._cycles = self._instructions = self._functional_steps = 0
        self._workers: Set[int] = set()
        self._tallies: Dict[str, Counter] = {name: Counter()
                                             for name in _TALLIED}
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)

    def _append_line(self, payload: Dict[str, Any]) -> None:
        if self.log_path is None:
            return
        payload = dict(payload, crc=ledger_line_crc(payload))
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True))
            handle.write("\n")

    def write_meta(self, meta: Dict[str, Any]) -> None:
        """Log the run-level metadata (command, argv, engine config)
        that ``repro resume`` replays an interrupted run from."""
        self.meta = dict(meta)
        self._append_line(dict(meta, record_type=RUN_META_TYPE))

    def record(self, record: WindowRecord) -> None:
        self._windows += 1
        for name, counts in self._tallies.items():
            counts[getattr(record, name)] += 1
        self._retries += max(0, (record.attempts or 1) - 1)
        self._wall_s += record.wall_s
        self._cycles += record.cycles or 0
        self._instructions += record.instructions or 0
        self._functional_steps += record.functional_steps or 0
        if record.worker is not None:
            self._workers.add(record.worker)
        if self.log_path is not None:
            self._append_line(record.to_dict())

    def record_hits(self, windows: int, cycles: int,
                    instructions: int) -> None:
        """Count ``windows`` result-cache hits with their summed
        ``cycles`` and ``instructions``: the aggregate effect of
        :meth:`record` for the same hits.  Without a ledger the engine
        counts hits this way and builds no :class:`WindowRecord`, so a
        subclass that overrides :meth:`record` sees hits only when it
        has a ``log_path``."""
        self._windows += windows
        self._wall_s += 0.0  # a hit's wall_s: the sum turns float
        self._tallies["cache"]["hit"] += windows
        self._cycles += cycles
        self._instructions += instructions

    def record_group_fallback(self) -> None:
        """Count one batched group replay that raised and was re-run
        one window at a time."""
        self._group_fallbacks += 1

    def write_validation(self, detail: Dict[str, Any]) -> None:
        """Log one typed fast-path divergence record (the watchdog's
        out-of-band evidence line)."""
        self._append_line(dict(detail, record_type=VALIDATION_TYPE))

    def write_plan(self, detail: Dict[str, Any]) -> None:
        """Log one sampling-plan telemetry record (plan identity,
        windows_run/windows_population, per-stratum CI half-widths)."""
        self.plans.append(dict(detail))
        self._plan_modes[detail["plan"]["mode"]] += 1
        self._append_line(dict(detail, record_type=PLAN_TYPE))

    def summary(self) -> Dict[str, Any]:
        """Aggregate view of the run so far, for ``--json`` output."""
        cache, trace, path, validation = (
            self._tallies[name]
            for name in ("cache", "trace", "timing_path", "validation"))
        return {
            "plans": [dict(plan) for plan in self.plans],
            "plan_modes": _tally(self._plan_modes),
            "windows": self._windows,
            "cache_hits": cache["hit"],
            "cache_misses": self._windows - cache["hit"] - cache["failed"],
            "failures": cache["failed"],
            "retries": self._retries,
            "group_fallbacks": self._group_fallbacks,
            "window_wall_s": round(self._wall_s, 4),
            "elapsed_s": round(time.time() - self._started, 4),
            "simulated_cycles": self._cycles,
            "simulated_instructions": self._instructions,
            "workers": sorted(self._workers),
            "trace_hits": trace["hit"],
            "trace_misses": trace["miss"],
            "functional_steps": self._functional_steps,
            "fastpath_windows": path["fast"],
            "goldenpath_windows": path["golden"],
            "timing_kernels": _tally(self._tallies["timing_kernel"]),
            "timing_routes": _tally(self._tallies["timing_route"]),
            "validation_passes": validation["pass"],
            "validation_divergences": validation["divergence"],
        }


def _tally(counts: Counter) -> Dict[str, int]:
    """Occurrences of each non-None value, in sorted key order."""
    return dict(sorted((value, count) for value, count in counts.items()
                       if value is not None))


# ----------------------------------------------------------------------
# Reading a run log back: the resume path.


def read_run_log_checked(path) -> Tuple[Optional[Dict[str, Any]],
                                        List[Dict[str, Any]],
                                        LedgerReport]:
    """Parse a run JSONL into ``(meta, window_records, report)``.

    Interrupted runs may end in a torn, half-written line, and a
    stored ledger can bit-rot in place; both are *skipped* — never
    trusted — and tallied in the returned
    :class:`~repro.engine.integrity.LedgerReport`, so a resume can
    warn about exactly what it ignored.  Returns ``(None, [],
    empty report)`` for a missing or unreadable file.
    """
    meta: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    report = LedgerReport(path=str(path))
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError:
        return None, [], report
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        report.lines += 1
        try:
            obj = json.loads(line)
        except ValueError:
            report.torn += 1  # torn tail line from an interrupted run
            continue
        if not isinstance(obj, dict):
            report.torn += 1
            continue
        status = check_ledger_line(obj)
        if status == "corrupt":
            report.corrupt += 1  # bit rot: skip, never trust
            continue
        report.ok += int(status == "ok")
        report.legacy += int(status == "legacy")
        record_type = obj.get("record_type")
        if record_type == RUN_META_TYPE:
            if meta is None:
                meta = obj
        elif record_type in (VALIDATION_TYPE, PLAN_TYPE):
            pass  # evidence/telemetry lines, not window records
        else:
            records.append(obj)
    return meta, records, report


def read_run_log(path) -> Tuple[Optional[Dict[str, Any]],
                                List[Dict[str, Any]]]:
    """:func:`read_run_log_checked` without the integrity report."""
    meta, records, _report = read_run_log_checked(path)
    return meta, records


def completed_keys(records: List[Dict[str, Any]]) -> Set[str]:
    """Spec digests the logged run finished (hit or executed miss) —
    the windows a resume can expect to find in the durable cache."""
    return {record["key"] for record in records
            if "key" in record and record.get("cache") in ("hit", "miss")}
