"""Window populations: the declarative form of a figure's window space.

Before the sampling pipeline, every experiment hand-rolled its own
nested ``for benchmark ... for variant ...`` spec loop.  A
:class:`WindowPopulation` replaces those loops with data: an ordered
tuple of :class:`Cell`\\ s, where each cell is the *unit of sampling*
— the smallest group of :class:`~repro.engine.spec.WindowSpec`\\ s that
must execute together for the figure's reduction to make sense (e.g.
Figure 12 pairs each benchmark's ``none``/``cbs``/``brr`` windows in
one cell so overhead deltas stay matched).

Cells carry:

* ``id`` — unique within the population; the deterministic sampling
  rank of :class:`~repro.stats.plan.SamplingPlan` hashes it, so a
  plan's selection is stable across runs, processes and resumes;
* ``stratum`` — the grouping estimators stratify by (benchmark for the
  accuracy figures, curve for the Figure 13 sweep).  Plans allocate
  their budget proportionally across strata;
* ``mandatory`` — cells every plan must run regardless of budget
  (Figure 13's baseline windows: nothing can be normalised without
  them);
* ``tags`` — reduction metadata (interval, scheme, seed, ...) so
  consumers never parse cell ids.

``WindowPopulation.enumerate()`` answers the cells in declaration
order and ``specs()`` flattens them to the exact spec sequence the
pre-sampling exhaustive loops produced — which is what keeps
``fraction=1.0`` byte-identical to the old pipeline.

A population is a pure function of its builder's arguments, so every
figure's builder is wrapped in :func:`memoised`: a warm request gets
back the same cells and specs, whose digests and labels are already
kept on each instance.
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

from ..engine.spec import WindowSpec

if TYPE_CHECKING:
    from .plan import SamplingPlan

#: Bound of the population memo, in windows: the populations it holds
#: name at most this many specs together (first in, first out), and a
#: larger population is built afresh each time.  A spec with its
#: digest and label takes 1.1-3.1 KB (an accuracy spec carries its
#: benchmark's shape), so a full memo holds at most about 6 MB; the
#: benchmark's served mix keeps 145 windows in 4 entries.
POPULATION_MEMO_WINDOWS = 2048

#: ``(builder, argument identities)`` -> population, oldest first.
_memo: Dict[Tuple[Any, ...], "WindowPopulation"] = {}
_memo_lock = threading.Lock()

#: Bound of each population's memo of static plan selections (first
#: in, first out).
SELECTION_MEMO_LIMIT = 8


@dataclass(frozen=True)
class Cell:
    """The unit of sampling: specs that execute (and reduce) together."""

    id: str
    stratum: str
    specs: Tuple[WindowSpec, ...]
    mandatory: bool = False
    #: Reduction metadata as (name, value) pairs; see :meth:`tag`.
    tags: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("cell id must be non-empty")
        if not self.specs:
            raise ValueError(f"cell {self.id!r} declares no specs")

    def tag(self, name: str, default: Any = None) -> Any:
        """The value of tag ``name`` (or ``default``)."""
        for key, value in self.tags:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class WindowPopulation:
    """An ordered, enumerable-or-samplable window space."""

    name: str
    cells: Tuple[Cell, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        seen = set()
        for cell in self.cells:
            if cell.id in seen:
                raise ValueError(
                    f"population {self.name!r} has duplicate cell id "
                    f"{cell.id!r}")
            seen.add(cell.id)

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of cells (the sampling-unit count)."""
        return len(self.cells)

    @property
    def n_windows(self) -> int:
        """Total window count across every cell."""
        return sum(len(cell.specs) for cell in self.cells)

    def enumerate(self) -> List[Cell]:
        """Every cell, in declaration order (the exhaustive plan)."""
        return list(self.cells)

    def specs(self) -> List[WindowSpec]:
        """Every window spec, flattened in declaration order — exactly
        the sequence the pre-population exhaustive loops produced."""
        return [spec for cell in self.cells for spec in cell.specs]

    def strata(self) -> Dict[str, List[Cell]]:
        """Cells grouped by stratum, preserving declaration order of
        both the strata and the cells within each."""
        grouped: Dict[str, List[Cell]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.stratum, []).append(cell)
        return grouped

    def selection(self, plan: "SamplingPlan") -> List[Cell]:
        """``plan.select(self)``, kept on this instance for up to
        :data:`SELECTION_MEMO_LIMIT` plans.  A selection is a pure
        function of (plan, population); the key is the plan's ``repr``,
        because its canonical string drops the seed and rounds the
        fraction."""
        memo = self.__dict__.setdefault("_selections", {})
        key = repr(plan)
        cells = memo.get(key)
        if cells is None:
            cells = tuple(plan.select(self))
            with _memo_lock:
                if len(memo) >= SELECTION_MEMO_LIMIT:
                    del memo[next(iter(memo))]
                memo[key] = cells
        return list(cells)

    def cell(self, cell_id: str) -> Cell:
        for candidate in self.cells:
            if candidate.id == cell_id:
                return candidate
        raise KeyError(f"population {self.name!r} has no cell {cell_id!r}")


# ----------------------------------------------------------------------
# The population memo.


#: Exact types a memo key takes as they are (a ``float`` by its
#: ``repr``, which keeps ``0.0`` and ``-0.0`` apart).
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _frozen(value: Any) -> Any:
    """``value`` with every sequence or other iterable (not a string or
    a mapping) frozen to a tuple, so the memo key and the builder see
    one value, and a generator is read once."""
    if type(value) in _SCALARS \
            or isinstance(value, (str, bytes, bytearray, Mapping)) \
            or not isinstance(value, Iterable):
        return value
    return tuple(_frozen(item) for item in value)


@functools.lru_cache(maxsize=32)
def _field_names(kind: type) -> Tuple[str, ...]:
    return tuple(spec.name for spec in fields(kind))


def _identity(value: Any) -> Any:
    """A hashable identity of a frozen argument that keeps apart every
    two values a spec digest keeps apart (``1``, ``1.0``, ``True``;
    ``0.0`` and ``-0.0``).  Raises :class:`TypeError` for any value
    that is not an exact scalar, a tuple or a frozen dataclass of
    them: such a call bypasses the memo, so the builder (and
    :meth:`WindowSpec.make`) sees and judges it on every call."""
    kind = type(value)
    if kind in _SCALARS:
        return kind, repr(value) if kind is float else value
    if kind is tuple:
        return kind, tuple([_identity(item) for item in value])
    params = getattr(kind, "__dataclass_params__", None)
    if params is not None and params.frozen:
        return kind, tuple([_identity(getattr(value, name))
                            for name in _field_names(kind)])
    raise TypeError(f"no memo identity for {kind.__name__}")


def memoised(builder: Callable[..., WindowPopulation]
             ) -> Callable[..., WindowPopulation]:
    """Wrap a population builder in the process-wide population memo.

    The key is the builder and the identities of its bound arguments,
    defaults applied, so ``f(48)`` and ``f(n_chars=48)`` share an
    entry.  The unwrapped builder stays reachable as ``__wrapped__``.
    """
    signature = inspect.signature(builder)

    @functools.wraps(builder)
    def build(*args: Any, **kwargs: Any) -> WindowPopulation:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = {name: _frozen(value)
                     for name, value in bound.arguments.items()}
        try:
            key = (builder, _identity(tuple(arguments.items())))
        except TypeError:
            return builder(**arguments)
        population = _memo.get(key)
        if population is None:
            population = builder(**arguments)
            _remember(key, population)
        return population

    return build


def _remember(key: Tuple[Any, ...], population: WindowPopulation) -> None:
    """Keep ``population`` under ``key``, evicting the oldest entries
    until the memo holds at most :data:`POPULATION_MEMO_WINDOWS`."""
    size = population.n_windows
    if size > POPULATION_MEMO_WINDOWS:
        return
    with _memo_lock:
        held = sum(entry.n_windows for entry in _memo.values())
        while _memo and held + size > POPULATION_MEMO_WINDOWS:
            held -= _memo.pop(next(iter(_memo))).n_windows
        _memo[key] = population
