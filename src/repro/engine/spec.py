"""Declarative simulation-window specifications.

A :class:`WindowSpec` is the engine's unit of work: a hashable,
JSON-serialisable description of one independent simulation window —
which workload/program to build, which sampling variant to apply,
which :class:`~repro.timing.config.TimingConfig` to time it under and
which seeds pin every source of randomness (workload RNG, LFSR
initialisation).  Because a window is a *pure function* of its spec,
the spec's canonical JSON digest doubles as the key of the on-disk
result cache and as the identity under which run artifacts are logged.

The digest folds in :data:`SCHEMA_VERSION`; bump it whenever the
meaning of any parameter, the payload layout, or the simulated
semantics change, so stale cache entries invalidate wholesale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

#: Version tag folded into every cache key.  Bump on any change to
#: window semantics or payload layout.  v2: cache entries embed an
#: integrity block (payload digest + schema — see
#: ``docs/integrity.md``), so pre-integrity entries invalidate
#: wholesale instead of tripping digest verification.
SCHEMA_VERSION = 2


#: Exact scalar types ``_canonical`` returns as they are; a subclass
#: (an ``IntEnum`` value, say) takes the ``isinstance`` path below.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _canonical(value: Any) -> Any:
    """Normalise a parameter value to a hashable canonical form."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, (dict, Mapping)):
        return tuple(sorted((str(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"WindowSpec parameters must be JSON-able scalars/sequences/"
        f"mappings, got {type(value).__name__}: {value!r}"
    )


def _jsonable(value: Any) -> Any:
    """Expand the canonical form back into plain JSON types."""
    if isinstance(value, tuple):
        if value and all(
            isinstance(item, tuple) and len(item) == 2
            and isinstance(item[0], str) for item in value
        ):
            return {k: _jsonable(v) for k, v in value}
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class WindowSpec:
    """One independent, deterministic simulation window."""

    kind: str
    params: Tuple[Tuple[str, Any], ...]

    @classmethod
    def make(cls, kind: str, /, **params: Any) -> "WindowSpec":
        """Build a spec with canonically ordered parameters.

        ``kind`` is positional-only so that a *parameter* named "kind"
        (the cbs/brr framework selector) can coexist with it.
        """
        return cls(
            kind=kind,
            params=tuple((name, _canonical(params[name]))
                         for name in sorted(params)),
        )

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def params_dict(self) -> Dict[str, Any]:
        """Parameters as plain JSON types (tuples become lists)."""
        return {name: _jsonable(value) for name, value in self.params}

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.params_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WindowSpec":
        return cls.make(data["kind"], **dict(data["params"]))

    @property
    def cache_key(self) -> str:
        """Content digest of (schema, kind, params) — the cache key.

        Computed on first use and kept in the instance ``__dict__``
        (the dataclass is frozen, so its fields cannot change under
        it); equality and hashing still read the fields only.  A warm
        request reuses its figure's memoised population, so it reads
        the digests of the same instances (see
        :data:`repro.stats.population.POPULATION_MEMO_WINDOWS`).
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            blob = json.dumps(
                {"schema": SCHEMA_VERSION,
                 "kind": self.kind,
                 "params": self.params_dict()},
                sort_keys=True, separators=(",", ":"),
            )
            key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            self.__dict__["_cache_key"] = key
        return key

    @property
    def short_key(self) -> str:
        """Abbreviated digest for log lines and error messages."""
        return self.cache_key[:12]

    def label(self) -> str:
        """Short human-readable identity for logs (kept like
        :attr:`cache_key`)."""
        label = self.__dict__.get("_label")
        if label is None:
            params = dict(self.params)
            bits = [f"{name}={params[name]}" for name in _LABEL_PARAMS
                    if params.get(name) is not None]
            label = f"{self.kind}({', '.join(bits)})"
            self.__dict__["_label"] = label
        return label


#: The parameters :meth:`WindowSpec.label` shows, in this order.
_LABEL_PARAMS = ("benchmark", "variant", "kind", "scheme", "schemes",
                 "interval", "seed", "n_chars", "scale")
