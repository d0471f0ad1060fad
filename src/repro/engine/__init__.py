"""Shared experiment-execution subsystem (see ``docs/engine.md``).

Every figure reproduction decomposes into independent, deterministic
simulation windows.  This package turns that observation into
infrastructure: declarative :class:`WindowSpec`s, a content-addressed
on-disk :class:`ResultCache`, a record-once / replay-many
:class:`TraceStore` keyed by each window's functional projection
(``docs/trace_format.md``), a fault-tolerant process-pool executor
(timeouts, bounded retry, pool rebuild, ``raise``/``retry``/``skip``
failure policies — all in one :class:`EngineConfig`) with a serial
deterministic fallback, structured JSONL run artifacts, and a resume
path that re-executes only the windows an interrupted run left
uncached.

All of that on-disk state is checksummed end to end
(``docs/integrity.md``): traces and cache entries verify on read and
quarantine + self-heal under the default ``repair`` policy, ledger
lines carry per-line CRCs, ``repro doctor`` (:func:`run_doctor`)
audits everything, and the ``REPRO_VALIDATE`` watchdog cross-checks
the fast timing kernel against the golden model at runtime.
"""

from .artifacts import (
    PLAN_TYPE,
    RUN_META_TYPE,
    VALIDATION_TYPE,
    RunRecorder,
    WindowRecord,
    completed_keys,
    read_run_log,
    read_run_log_checked,
)
from .cache import ResultCache, default_cache_dir
from .config import FAILURE_POLICIES, EngineConfig
from .core import (
    ExperimentEngine,
    PlanRun,
    WindowFailure,
    WindowTimeout,
    get_engine,
    is_failure,
    run_population,
    run_windows,
    set_engine,
)
from .faults import InjectedWorkerFault, corrupt_file, should_inject
from .integrity import (
    INTEGRITY_POLICIES,
    VALIDATE_POLICIES,
    IntegrityCounters,
    IntegrityError,
    LedgerReport,
    ValidationDivergence,
    ValidationSettings,
    format_doctor,
    quarantined_entries,
    run_doctor,
    scan_ledger,
    validation_override,
)
from .spec import SCHEMA_VERSION, WindowSpec
from .tracestore import (
    TIMING_ONLY_PARAMS,
    TRACE_HANDLE_LIMIT,
    TRACE_STORE_VERSION,
    TraceStore,
    default_trace_dir,
    functional_key,
    trace_enabled_by_env,
)

__all__ = [
    "SCHEMA_VERSION",
    "WindowSpec",
    "ResultCache",
    "default_cache_dir",
    "PLAN_TYPE",
    "RUN_META_TYPE",
    "VALIDATION_TYPE",
    "RunRecorder",
    "WindowRecord",
    "completed_keys",
    "read_run_log",
    "read_run_log_checked",
    "EngineConfig",
    "FAILURE_POLICIES",
    "INTEGRITY_POLICIES",
    "VALIDATE_POLICIES",
    "IntegrityCounters",
    "IntegrityError",
    "LedgerReport",
    "ValidationDivergence",
    "ValidationSettings",
    "corrupt_file",
    "format_doctor",
    "quarantined_entries",
    "run_doctor",
    "scan_ledger",
    "validation_override",
    "ExperimentEngine",
    "PlanRun",
    "WindowFailure",
    "WindowTimeout",
    "InjectedWorkerFault",
    "should_inject",
    "get_engine",
    "is_failure",
    "run_population",
    "run_windows",
    "set_engine",
    "TIMING_ONLY_PARAMS",
    "TRACE_HANDLE_LIMIT",
    "TRACE_STORE_VERSION",
    "TraceStore",
    "default_trace_dir",
    "functional_key",
    "trace_enabled_by_env",
]
