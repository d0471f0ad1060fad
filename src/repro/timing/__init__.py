"""Cycle-level out-of-order timing simulation (Section 5.1 machine)."""

from .caches import Cache, Hierarchy
from .config import NAIVE_BRR_CONFIG, PAPER_CONFIG, TimingConfig
from .cosim import CoSimulator, CosimDivergence, ReplayUnit
from .fastpath import FastPathUnsupported, run_fastpath
from .pipeline import TimingSimulator, TimingStats
from .report import compare, format_stats
from .predictors import (
    Bimodal,
    Btb,
    Gshare,
    ReturnAddressStack,
    Tournament,
    TwoBitTable,
)
from .runner import (
    WindowResult,
    cycles_per_site,
    overhead_percent,
    record_window,
    replay_window,
    time_program,
    time_window,
)

__all__ = [
    "Cache",
    "Hierarchy",
    "CoSimulator",
    "CosimDivergence",
    "ReplayUnit",
    "FastPathUnsupported",
    "run_fastpath",
    "compare",
    "format_stats",
    "NAIVE_BRR_CONFIG",
    "PAPER_CONFIG",
    "TimingConfig",
    "TimingSimulator",
    "TimingStats",
    "Bimodal",
    "Btb",
    "Gshare",
    "ReturnAddressStack",
    "Tournament",
    "TwoBitTable",
    "WindowResult",
    "cycles_per_site",
    "overhead_percent",
    "record_window",
    "replay_window",
    "time_program",
    "time_window",
]
