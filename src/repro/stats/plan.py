"""Sampling plans: which cells of a population a run executes.

A :class:`SamplingPlan` is a small frozen value object with four
modes:

``exhaustive``
    Every cell (the default pipeline behaviour; also what any
    ``fraction >= 1.0`` resolves to).
``fraction:F``
    A deterministic, stratified ``F`` of the population's cells.
``budget:N``
    At most ``N`` cells, allocated proportionally across strata.
``adaptive:N``
    At most ``N`` cells, but scheduled by the engine from interim
    estimator variance: after a seed batch, each next cell comes from
    the stratum whose running confidence interval is widest (see
    :meth:`repro.engine.core.ExperimentEngine.run_plan`).

Selection is a pure function of ``(plan, population)``: each cell is
ranked by ``sha256(seed "/" cell.id)`` and each stratum contributes its
lowest-ranked cells, with the per-stratum quotas assigned by
largest-remainder apportionment of the plan's target.  Mandatory cells
(Figure 13's baselines) are always included and never consume another
stratum's quota.  Because the rank hashes stable cell ids — not
enumeration indices or RNG state — two runs under the same plan select
the identical subset, cache keys are unaffected, and ``repro resume``
replays a sampled run exactly.  The engine therefore asks for a static
plan's selection through :meth:`WindowPopulation.selection`, which
keeps it on the population instance.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from .population import Cell, WindowPopulation

#: Allowed values of :attr:`SamplingPlan.mode`.
PLAN_MODES = ("exhaustive", "fraction", "budget", "adaptive")


def _format_fraction(fraction: float) -> str:
    text = f"{fraction:g}"
    return text


@dataclass(frozen=True)
class SamplingPlan:
    """A seeded, deterministic recipe for sampling a window population."""

    mode: str = "exhaustive"
    #: Target fraction of cells for ``mode == "fraction"``.
    fraction: Optional[float] = None
    #: Cell budget for ``mode in ("budget", "adaptive")``.
    budget: Optional[int] = None
    #: Selection seed; hashed with each cell id, never fed to an RNG.
    seed: int = 0
    #: Confidence level of every interval estimated under this plan.
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.mode not in PLAN_MODES:
            raise ValueError(
                f"plan mode must be one of {PLAN_MODES}, got {self.mode!r}")
        if self.mode == "fraction":
            if self.fraction is None or self.fraction <= 0:
                raise ValueError(
                    f"fraction plans need fraction > 0, got {self.fraction}")
        elif self.fraction is not None:
            raise ValueError(f"{self.mode} plans take no fraction")
        if self.mode in ("budget", "adaptive"):
            if self.budget is None or self.budget < 1:
                raise ValueError(
                    f"{self.mode} plans need budget >= 1, got {self.budget}")
        elif self.budget is not None:
            raise ValueError(f"{self.mode} plans take no budget")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}")

    # ------------------------------------------------------------------
    # Parsing / serialisation.

    @classmethod
    def parse(cls, text: str, seed: Optional[int] = None,
              confidence: Optional[float] = None) -> "SamplingPlan":
        """Parse the CLI/serve plan syntax: ``exhaustive``,
        ``fraction:0.25``, ``budget:24`` or ``adaptive:24``."""
        raw = str(text).strip().lower()
        mode, _, argument = raw.partition(":")
        values: Dict[str, Any] = {"mode": mode}
        if seed is not None:
            values["seed"] = int(seed)
        if confidence is not None:
            values["confidence"] = float(confidence)
        if mode == "exhaustive":
            if argument:
                raise ValueError(
                    f"exhaustive plans take no argument, got {text!r}")
        elif mode == "fraction":
            try:
                values["fraction"] = float(argument)
            except ValueError:
                raise ValueError(
                    f"bad sampling fraction in {text!r}") from None
        elif mode in ("budget", "adaptive"):
            try:
                values["budget"] = int(argument)
            except ValueError:
                raise ValueError(f"bad sampling budget in {text!r}") from None
        else:
            raise ValueError(
                f"unknown sampling plan {text!r}; expected one of "
                f"exhaustive, fraction:F, budget:N, adaptive:N")
        return cls(**values)

    def canonical(self) -> str:
        """The normalised plan string ``parse`` round-trips."""
        if self.mode == "fraction":
            return f"fraction:{_format_fraction(self.fraction)}"
        if self.mode in ("budget", "adaptive"):
            return f"{self.mode}:{self.budget}"
        return "exhaustive"

    def describe(self) -> str:
        """One human-readable identity line for figure footers."""
        return f"{self.canonical()} seed={self.seed}"

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SamplingPlan":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SamplingPlan fields: {sorted(unknown)}")
        return cls(**dict(data))

    # ------------------------------------------------------------------
    # Deterministic selection.

    def rank(self, cell_id: str) -> int:
        """The cell's deterministic sampling rank under this plan's
        seed (lower ranks are selected first)."""
        digest = hashlib.sha256(
            f"{self.seed}/{cell_id}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def target_cells(self, size: int) -> int:
        """How many cells this plan runs out of ``size``."""
        if size <= 0:
            return 0
        if self.mode == "exhaustive":
            return size
        if self.mode == "fraction":
            if self.fraction >= 1.0:
                return size
            return min(size, max(1, int(self.fraction * size + 0.5)))
        return min(size, int(self.budget))

    def select(self, population: WindowPopulation) -> List[Cell]:
        """The sampled cell subset, in population (declaration) order.

        Adaptive plans share this as their *fallback* static selection;
        the engine's adaptive scheduler re-derives the tail of the
        budget from interim variance instead.
        """
        cells = population.enumerate()
        target = self.target_cells(population.size)
        if target >= population.size:
            return cells
        mandatory = [cell for cell in cells if cell.mandatory]
        chosen = {cell.id for cell in mandatory}
        quota = max(0, target - len(mandatory))
        strata = [(stratum, [cell for cell in members if not cell.mandatory])
                  for stratum, members in population.strata().items()]
        strata = [(stratum, members) for stratum, members in strata
                  if members]
        for stratum, allocation in zip(
                (stratum for stratum, _ in strata),
                self._apportion(quota, [len(members)
                                        for _, members in strata])):
            members = dict(strata)[stratum]
            ranked = sorted(members, key=lambda c: (self.rank(c.id), c.id))
            chosen.update(cell.id for cell in ranked[:allocation])
        return [cell for cell in cells if cell.id in chosen]

    @staticmethod
    def _apportion(quota: int, sizes: List[int]) -> List[int]:
        """Largest-remainder apportionment of ``quota`` across strata,
        capped at each stratum's size."""
        total = sum(sizes)
        if total == 0 or quota <= 0:
            return [0 for _ in sizes]
        quota = min(quota, total)
        exact = [quota * size / total for size in sizes]
        allocation = [int(share) for share in exact]
        remainders = sorted(
            range(len(sizes)),
            key=lambda i: (-(exact[i] - allocation[i]), i))
        leftover = quota - sum(allocation)
        for index in remainders:
            if leftover <= 0:
                break
            if allocation[index] < sizes[index]:
                allocation[index] += 1
                leftover -= 1
        # If rounding left quota unplaced (some strata saturated),
        # spill it into whichever strata still have room, in order.
        for index in range(len(sizes)):
            while leftover > 0 and allocation[index] < sizes[index]:
                allocation[index] += 1
                leftover -= 1
        return allocation
