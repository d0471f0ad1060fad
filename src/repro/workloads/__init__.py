"""Workloads: DaCapo-like invocation streams, the checksum
microbenchmark, the Shakespeare-like text generator, and the
adversarial predictor-aware program family — unified behind the
:mod:`~repro.workloads.registry` (``get_workload(name, **knobs)``).
"""

from .adversarial import (
    AdversarialProgram,
    AdversarialSpec,
    FunctionalOutcome,
    build_adversarial,
)
from .dacapo import (
    DACAPO_BENCHMARKS,
    DacapoSpec,
    event_chunks,
    method_weights,
)
from .microbench import (
    END_MARKER,
    PROFILE_BASE,
    SITES,
    TEXT_BASE,
    WARM_MARKER,
    Microbench,
    build_cfg,
)
from .registry import (
    FAMILIES,
    Workload,
    get_workload,
    list_workloads,
    workload_family,
)
from .text import (
    class_counts,
    classify,
    reference_checksum,
    site_encounters,
)

__all__ = [
    "AdversarialProgram",
    "AdversarialSpec",
    "FunctionalOutcome",
    "build_adversarial",
    "DACAPO_BENCHMARKS",
    "DacapoSpec",
    "event_chunks",
    "method_weights",
    "END_MARKER",
    "PROFILE_BASE",
    "SITES",
    "TEXT_BASE",
    "WARM_MARKER",
    "Microbench",
    "build_cfg",
    "FAMILIES",
    "Workload",
    "get_workload",
    "list_workloads",
    "workload_family",
    "class_counts",
    "classify",
    "reference_checksum",
    "site_encounters",
]
