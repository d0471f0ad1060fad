"""The unified workload registry: one API over every workload family.

Every workload family is built through one entry point,
:func:`get_workload`, instead of an ad-hoc builder per family::

    get_workload("jython", scale=0.01).events()
    get_workload("microbench", variant="full").program()
    get_workload("adversarial", scheme="cbs", density=0.5).program()
    get_workload("text", n_chars=400).events()

Every family answers the same three-method :class:`Workload` protocol:

* ``program()`` — the assembled :class:`~repro.isa.program.Program`
  (families that are pure event streams raise ``ValueError``);
* ``events()`` — the workload's event stream as one array (method ids
  for dacapo, the byte stream for text; program families raise);
* ``functional_key()`` — the canonical ``{"family", "knobs"}`` dict
  identifying the workload's functional content, for content-addressed
  stores and request coalescing.

``raw`` exposes the family-specific object (:class:`Microbench`,
:class:`AdversarialProgram`, :class:`DacapoSpec`, ``bytes``) for
callers that need family extras (``load_text``, ``measured_sites``,
streaming ``event_chunks`` ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from ..isa.program import Program


@dataclass
class Workload:
    """One instantiated workload behind the uniform protocol."""

    family: str
    knobs: Dict[str, Any]
    #: The family-specific object (Microbench, AdversarialProgram,
    #: DacapoSpec, bytes) for callers needing family extras.
    raw: Any

    def program(self) -> Program:
        raise ValueError(
            f"workload family {self.family!r} is an event stream and "
            f"has no program; use .events()")

    def events(self) -> Any:
        raise ValueError(
            f"workload family {self.family!r} is a program and has no "
            f"event stream; use .program()")

    def functional_key(self) -> Dict[str, Any]:
        return {"family": self.family, "knobs": dict(self.knobs)}


class DacapoWorkload(Workload):
    """A synthetic DaCapo benchmark: a method-invocation event stream."""

    @property
    def spec(self):
        return self.raw

    def events(self) -> Any:
        import numpy as np

        return np.concatenate(list(self.event_chunks()))

    def event_chunks(self) -> Any:
        """The memory-bounded streaming form (full-scale runs)."""
        from .dacapo import event_chunks

        return event_chunks(self.raw, scale=self.knobs["scale"],
                            seed=self.knobs["seed"])


class MicrobenchWorkload(Workload):
    """The Section 5.3 checksum microbenchmark (a timed program)."""

    def program(self) -> Program:
        return self.raw.program


class TextWorkload(Workload):
    """The Shakespeare-like character stream (an event stream)."""

    def events(self) -> Any:
        import numpy as np

        return np.frombuffer(self.raw, dtype=np.uint8)


class AdversarialWorkload(Workload):
    """A generated predictor-adversarial program."""

    def program(self) -> Program:
        return self.raw.program()

    def functional_key(self) -> Dict[str, Any]:
        return self.raw.functional_key()


Builder = Callable[..., Workload]

FAMILIES: Dict[str, Builder] = {}


def workload_family(name: str) -> Callable[[Builder], Builder]:
    """Register a family builder under its registry name."""
    def register(builder: Builder) -> Builder:
        FAMILIES[name] = builder
        return builder
    return register


@workload_family("dacapo")
def _build_dacapo(name: str, scale: float = 0.1, seed: int = 0,
                  **overrides: Any) -> DacapoWorkload:
    import dataclasses

    from .dacapo import _lookup_spec

    spec = _lookup_spec(name)
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    knobs = dict(dataclasses.asdict(spec), scale=scale, seed=seed)
    return DacapoWorkload(family="dacapo", knobs=knobs, raw=spec)


@workload_family("microbench")
def _build_microbench_workload(**knobs: Any) -> MicrobenchWorkload:
    from .microbench import _assemble_microbench

    bench = _assemble_microbench(**knobs)
    recorded = dict(knobs)
    recorded.pop("text", None)  # bytes: derived from n_chars/seed
    return MicrobenchWorkload(family="microbench", knobs=recorded, raw=bench)


@workload_family("text")
def _build_text(**knobs: Any) -> TextWorkload:
    from .text import _play_text

    return TextWorkload(family="text", knobs=dict(knobs),
                        raw=_play_text(**knobs))


@workload_family("adversarial")
def _build_adversarial_workload(**knobs: Any) -> AdversarialWorkload:
    from .adversarial import build_adversarial

    adversarial = build_adversarial(**knobs)
    return AdversarialWorkload(family="adversarial",
                               knobs=adversarial.spec.to_dict(),
                               raw=adversarial)


def _dacapo_names() -> List[str]:
    from .dacapo import DACAPO_BENCHMARKS

    return [spec.name for spec in DACAPO_BENCHMARKS]


def list_workloads() -> List[str]:
    """Every accepted name: the families plus the dacapo shortcuts."""
    return sorted(FAMILIES) + _dacapo_names()


def get_workload(name: str, **knobs: Any) -> Workload:
    """Instantiate a workload by registry name.

    ``name`` is a family name (``"microbench"``, ``"text"``,
    ``"adversarial"``, ``"dacapo"`` — the latter takes ``name=`` as a
    knob), a ``"dacapo:jython"`` qualified form, or one of the eight
    DaCapo benchmark names directly.
    """
    if ":" in name:
        family, _, argument = name.partition(":")
        if family != "dacapo":
            raise KeyError(f"unknown workload family {family!r}")
        return FAMILIES["dacapo"](name=argument, **knobs)
    builder = FAMILIES.get(name)
    if builder is not None:
        return builder(**knobs)
    if name in _dacapo_names():
        return FAMILIES["dacapo"](name=name, **knobs)
    raise KeyError(
        f"unknown workload {name!r}; known: {', '.join(list_workloads())}")
