"""Structured run artifacts: the machine-readable bench trajectory.

Every window the engine executes (or serves from cache) produces one
:class:`WindowRecord` — spec identity, wall time, cycles/instructions
where the window carries timing stats, cache hit/miss/failed, attempt
count and the worker that ran it.  A :class:`RunRecorder` accumulates
the records, keeps aggregate counters for ``--json`` summaries and
optionally appends each record as one JSONL line to a log file
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
import json
import pathlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

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
    #: functional stream), "miss" (recorded it), "off" (lock-step
    #: fallback), or None (untimed window or result-cache hit).
    trace: Optional[str] = None
    #: Encoded size of the window's functional trace, where one exists.
    trace_bytes: Optional[int] = None
    #: Functional ``Machine.step()`` calls this window actually paid —
    #: 0 on a trace hit, the full stream length on a miss or lock-step
    #: run.  The record/replay speedup criterion is audited from this.
    functional_steps: Optional[int] = None
    #: Which timing implementation ran the window: "fast" (batched
    #: columnar kernel), "golden" (per-record replay loop), "lockstep"
    #: (no trace store), or None (untimed window or result-cache hit).
    timing_path: Optional[str] = None
    #: The kernel that actually replayed the window: "vector", "loop"
    #: or "golden" (None where ``timing_path`` is None or "lockstep").
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
        return dataclasses.asdict(self)


class RunRecorder:
    """Collects window records; optionally streams them as JSONL."""

    def __init__(self, log_path: Optional[pathlib.Path] = None) -> None:
        self.log_path = pathlib.Path(log_path) if log_path else None
        self.records: List[WindowRecord] = []
        self.validations: List[Dict[str, Any]] = []
        self.plans: List[Dict[str, Any]] = []
        self.meta: Optional[Dict[str, Any]] = None
        self._started = time.time()
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
        self.records.append(record)
        if self.log_path is not None:  # to_dict() costs ~1 us a field
            self._append_line(record.to_dict())

    def write_validation(self, detail: Dict[str, Any]) -> None:
        """Log one typed fast-path divergence record (the watchdog's
        out-of-band evidence line)."""
        self.validations.append(dict(detail))
        self._append_line(dict(detail, record_type=VALIDATION_TYPE))

    def write_plan(self, detail: Dict[str, Any]) -> None:
        """Log one sampling-plan telemetry record (plan identity,
        windows_run/windows_population, per-stratum CI half-widths)."""
        self.plans.append(dict(detail))
        self._append_line(dict(detail, record_type=PLAN_TYPE))

    def summary(self) -> Dict[str, Any]:
        """Aggregate view of the run so far, for ``--json`` output."""
        hits = sum(1 for r in self.records if r.cache == "hit")
        failures = sum(1 for r in self.records if r.cache == "failed")
        misses = len(self.records) - hits - failures
        return {
            "plans": [dict(plan) for plan in self.plans],
            "windows": len(self.records),
            "cache_hits": hits,
            "cache_misses": misses,
            "failures": failures,
            "retries": sum(max(0, (r.attempts or 1) - 1)
                           for r in self.records),
            "window_wall_s": round(sum(r.wall_s for r in self.records), 4),
            "elapsed_s": round(time.time() - self._started, 4),
            "simulated_cycles": sum(r.cycles or 0 for r in self.records),
            "simulated_instructions": sum(
                r.instructions or 0 for r in self.records),
            "workers": sorted({r.worker for r in self.records
                               if r.worker is not None}),
            "trace_hits": sum(1 for r in self.records if r.trace == "hit"),
            "trace_misses": sum(1 for r in self.records
                                if r.trace == "miss"),
            "functional_steps": sum(r.functional_steps or 0
                                    for r in self.records),
            "fastpath_windows": sum(1 for r in self.records
                                    if r.timing_path == "fast"),
            "goldenpath_windows": sum(1 for r in self.records
                                      if r.timing_path == "golden"),
            "timing_kernels": _tally(r.timing_kernel for r in self.records),
            "timing_routes": _tally(r.timing_route for r in self.records),
            "validation_passes": sum(1 for r in self.records
                                     if r.validation == "pass"),
            "validation_divergences": sum(1 for r in self.records
                                          if r.validation == "divergence"),
        }


def _tally(values) -> Dict[str, int]:
    """Occurrences of each non-None value, in sorted key order."""
    counts = Counter(value for value in values if value is not None)
    return dict(sorted(counts.items()))


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
