"""The Section 5.3 checksum/character-distribution microbenchmark.

The paper compiles one C source once and post-processes the assembly
into every instrumentation variant so that "all the benchmark binaries
are generated with the same instructions, register usage, stack
allocations, and code layout".  We do the analogue: a single CFG for
the character-processing loop, passed through the Arnold-Ryder
transforms of :mod:`repro.instrument` to produce
``no-instrumentation``, ``full-instrumentation``, and the sampled
``cbs``/``brr`` x ``no-dup``/``full-dup`` variants across any sampling
interval.

The loop classifies each character (lower-case / upper-case / other)
with data-dependent branches and updates a checksum and per-class
distribution counts.  Edge-profile instrumentation sites sit on the
classifying branches' outcome edges (site 0: not-lower edge, 1: lower
edge, 2: upper edge, 3: other edge).

Markers delimit the measured region: the loop fires marker 1 once a
warm-up fraction of the text has been processed and marker 2 at loop
exit, so timing windows exclude cold-start and prologue/epilogue
effects ("for all of our experiments we exclude the program's prologue
and epilogue from timing simulation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..instrument.arnold_ryder import SamplingSpec, apply_framework
from ..instrument.cfg import Block, Cfg, Terminator
from ..isa.asm import assemble
from ..isa.program import Program
from ..sim.machine import Machine
from .text import _play_text, reference_checksum, site_encounters

#: Memory layout.
TEXT_BASE = 0x20000
PROFILE_BASE = 0x10000
CHECKSUM_ADDR = 0x10100

#: Marker ids.
WARM_MARKER = 1
END_MARKER = 2

#: Site ids and their meaning.
SITES: Dict[int, str] = {
    0: "edge:head->mid (not lower)",
    1: "edge:head->lower",
    2: "edge:mid->upper",
    3: "edge:mid->other",
}

#: CFG block anchoring each site (the block whose label is the site's
#: sampling check — for brr variants, the ``brr`` instruction itself).
SITE_BLOCKS: Dict[int, str] = {
    0: "mid",
    1: "lower",
    2: "upper",
    3: "other",
}


def _site_lines(site_id: int) -> List[str]:
    """Edge-counter increment: the instrumentation payload."""
    offset = 4 * site_id
    return [
        f"lw r11, {offset}(r10)",
        "addi r11, r11, 1",
        f"sw r11, {offset}(r10)",
    ]


def build_cfg(n_chars: int, warm_chars: int) -> Cfg:
    """The fully instrumented character-processing CFG.

    Framework state initialisation (the cbs counter) is *not* part of
    this CFG — it belongs to the program preamble, before any sampling
    check can execute.
    """
    if not 0 <= warm_chars < n_chars:
        raise ValueError("warm-up must be shorter than the text")
    cfg = Cfg("mb", entry="entry")
    cfg.add(Block(
        "entry",
        body=[
            f"li r1, {TEXT_BASE}",
            f"li r2, {TEXT_BASE + n_chars}",
            "li r3, 0",
            f"li r10, {PROFILE_BASE}",
            f"li r8, {TEXT_BASE + warm_chars}",
        ],
        term=Terminator("fall", target="head"),
    ))
    cfg.add(Block(
        "head",
        body=[
            "lb r5, 0(r1)",
            "addi r1, r1, 1",
            "slti r6, r5, 97",
        ],
        # r5 >= 'a'  ->  r6 == 0  ->  lower-case path.
        term=Terminator("cond", op="beq", ra="r6", rb="r0",
                        taken="lower", target="mid"),
    ))
    mid = cfg.add(Block(
        "mid",
        body=["slti r6, r5, 65"],
        term=Terminator("cond", op="beq", ra="r6", rb="r0",
                        taken="upper", target="other"),
    ))
    mid.site_id, mid.site_lines = 0, _site_lines(0)
    other = cfg.add(Block(
        "other",
        body=["xor r3, r3, r5"],
        term=Terminator("jump", target="join"),
    ))
    other.site_id, other.site_lines = 3, _site_lines(3)
    upper = cfg.add(Block(
        "upper",
        body=["shli r7, r5, 1", "add r3, r3, r7"],
        term=Terminator("jump", target="join"),
    ))
    upper.site_id, upper.site_lines = 2, _site_lines(2)
    lower = cfg.add(Block(
        "lower",
        body=["add r3, r3, r5"],
        term=Terminator("fall", target="join"),
    ))
    lower.site_id, lower.site_lines = 1, _site_lines(1)
    cfg.add(Block(
        "join",
        body=[],
        term=Terminator("cond", op="beq", ra="r1", rb="r8",
                        taken="warm", target="latch"),
    ))
    cfg.add(Block(
        "latch",
        body=[],
        term=Terminator("cond", op="blt", ra="r1", rb="r2",
                        taken="head", target="exit"),
    ))
    cfg.add(Block(
        "warm",
        body=[f"marker {WARM_MARKER}", "li r8, 0"],
        term=Terminator("jump", target="latch"),
    ))
    cfg.add(Block(
        "exit",
        body=[f"marker {END_MARKER}", f"li r9, {CHECKSUM_ADDR}",
              "sw r3, 0(r9)"],
        term=Terminator("halt"),
    ))
    cfg.validate()
    return cfg


@dataclass
class Microbench:
    """One built variant of the microbenchmark."""

    program: Program
    text: bytes
    variant: str
    interval: Optional[int]
    include_payload: bool
    n_chars: int
    warm_chars: int

    @property
    def measured_text(self) -> bytes:
        """Characters inside the marker-delimited window."""
        return self.text[self.warm_chars:]

    @property
    def measured_sites(self) -> int:
        """Instrumentation sites encountered inside the window."""
        return site_encounters(self.measured_text)

    @property
    def expected_checksum(self) -> int:
        return reference_checksum(self.text)

    def load_text(self, machine: Machine) -> None:
        """Memory-setup callback for the timing runner."""
        machine.memory.write_bytes(TEXT_BASE, self.text)

    def make_machine(self, brr_unit=None, memory_size: int = 1 << 20) -> Machine:
        machine = Machine(self.program, memory_size=memory_size,
                          brr_unit=brr_unit)
        self.load_text(machine)
        return machine

    def read_results(self, machine: Machine):
        """(checksum, per-site edge counts) after a run."""
        checksum = machine.memory.load_word(CHECKSUM_ADDR)
        counts = [machine.memory.load_word(PROFILE_BASE + 4 * s)
                  for s in sorted(SITES)]
        return checksum, counts

    @staticmethod
    def branch_biases(counts):
        """Branch biases reconstructed from the edge profile.

        The paper's stated purpose for the microbenchmark's
        instrumentation: "we can collect edge profiles to compute
        branch biases".  Returns the taken probability of the two
        classifying branches: branch 1 (``head``: lower-case?) and
        branch 2 (``mid``: upper-case?).
        """
        not_lower, lower, upper, other = counts
        b1_total = lower + not_lower
        b2_total = upper + other
        if b1_total == 0 or b2_total == 0:
            raise ValueError("edge profile too sparse to compute biases")
        return {
            "head_taken_lower": lower / b1_total,
            "mid_taken_upper": upper / b2_total,
        }

    def brr_site_bindings(self):
        """Per-site (brr address, counter address) bindings for the
        convergent-profiling controller.  Only meaningful for the
        ``brr`` + ``no-dup`` variant, where each site's check block is
        exactly one ``brr`` instruction at the site's label."""
        if self.variant != "brr+no-dup":
            raise ValueError(
                f"site bindings need the brr+no-dup variant, "
                f"not {self.variant!r}"
            )
        from ..sampling.convergent_isa import SiteBinding

        return {
            site_id: SiteBinding(
                brr_addr=self.program.address_of(f"mb__{block}"),
                counter_addr=PROFILE_BASE + 4 * site_id,
            )
            for site_id, block in SITE_BLOCKS.items()
        }


def _assemble_microbench(
    n_chars: int = 2000,
    variant: str = "none",
    kind: Optional[str] = None,
    interval: int = 1024,
    include_payload: bool = True,
    warm_fraction: float = 0.25,
    seed: int = 0,
    text: Optional[bytes] = None,
    counter_in_register: bool = False,
) -> Microbench:
    """Build one microbenchmark variant.

    ``variant``: ``"none"``, ``"full"``, ``"no-dup"`` or ``"full-dup"``
    (the latter two need ``kind`` = ``"cbs"`` or ``"brr"``).
    ``counter_in_register`` selects Section 2's register-resident
    placement for the cbs counter.
    """
    if text is None:
        text = _play_text(n_chars, seed=seed)
    elif len(text) != n_chars:
        raise ValueError("explicit text length must equal n_chars")
    warm_chars = max(1, int(n_chars * warm_fraction))
    spec = None
    if variant in ("no-dup", "full-dup"):
        if kind is None:
            raise ValueError("sampled variants need kind='cbs' or 'brr'")
        spec = SamplingSpec(kind=kind, interval=interval,
                            counter_in_register=counter_in_register)
    cfg = build_cfg(n_chars, warm_chars)
    transformed = apply_framework(cfg, variant, spec=spec,
                                  include_payload=include_payload)
    # Preamble: framework state init runs before any sampling check.
    preamble = (spec.init_lines() if spec is not None else [])
    entry_label = transformed.label(transformed.entry)
    source = "\n".join(preamble + [f"jmp {entry_label}"] + transformed.lower())
    program = assemble(source)
    return Microbench(
        program=program,
        text=text,
        variant=variant if spec is None else f"{kind}+{variant}",
        interval=interval if spec is not None else None,
        include_payload=include_payload,
        n_chars=n_chars,
        warm_chars=warm_chars,
    )
