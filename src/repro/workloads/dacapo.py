"""Synthetic DaCapo-like method-invocation workloads (Section 4).

The paper measures sampling accuracy on eight DaCapo benchmarks run on
Jikes, ordered by total method invocations at size "default": fop (7M),
antlr (17M), bloat (93M), lusearch (108M), xalan (109M), jython (170M),
pmd (195M), luindex (212M).  What the accuracy experiments actually
consume is the *sequence of instrumentation-site events* — the stream
of method identifiers in invocation order — so each benchmark is
modelled as such a stream with the two properties that drive the
paper's results:

1. a Zipf-like skew in method frequency (profiles are dominated by a
   hot subset of methods, which is what makes sampling viable);
2. for ``jython`` and (milder) ``pmd``, long *resonant* loop regions:
   footnote 7's pathology, where "a loop body containing calls to two
   leaf methods will result in only one of the two methods getting
   sampled for a counter-based sampling interval that is a multiple of
   two".  Those regions emit a fixed repeating pattern of leaf-method
   calls whose period divides the power-of-two sampling intervals.

Streams are produced as int32 numpy chunks so the full-scale runs
(tens of millions of events) stay fast and memory bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np


@dataclass(frozen=True)
class DacapoSpec:
    """Shape parameters of one synthetic benchmark."""

    name: str
    invocations_millions: float
    methods: int = 400
    zipf_s: float = 1.1
    #: Fraction of all events inside resonant patterned loop regions.
    pattern_fraction: float = 0.0
    #: The repeating call pattern's period in events.  A fixed-interval
    #: counter whose interval is a multiple of the period systematically
    #: samples a single residue of the pattern (footnote 7).
    pattern_period: int = 2
    #: Number of distinct leaf methods in the pattern; the period is
    #: split into this many equal runs (``pattern_runs == period`` gives
    #: strict alternation, the paper's two-leaf loop body).
    pattern_runs: int = 2
    #: Length of one patterned region in events (a multiple of a large
    #: power of two so region starts stay phase-aligned with the
    #: counters — long-running inner loops, as in jython).
    pattern_block: int = 1 << 14
    seed: int = 0

    @property
    def invocations(self) -> int:
        return int(self.invocations_millions * 1_000_000)


#: The eight benchmarks in the paper's invocation-count order.
DACAPO_BENCHMARKS: Tuple[DacapoSpec, ...] = (
    DacapoSpec("fop", 7, methods=250, seed=101),
    DacapoSpec("antlr", 17, methods=300, seed=102),
    DacapoSpec("bloat", 93, methods=450, seed=103),
    DacapoSpec("lusearch", 108, methods=350, seed=104),
    DacapoSpec("xalan", 109, methods=400, seed=105),
    # jython: a loop body alternating two leaf methods (period 2) —
    # resonates with every power-of-two interval (Figures 9 and 10).
    DacapoSpec(
        "jython", 170, methods=450, seed=106,
        pattern_fraction=0.16, pattern_period=2, pattern_runs=2,
    ),
    # pmd: a longer nested-call chain (period 2048 as two 1024-call
    # runs) — an interval of 2^13 samples one run only, while 2^10
    # still covers both (the pathology "easier to see" in Figure 10).
    DacapoSpec(
        "pmd", 195, methods=500, seed=107,
        pattern_fraction=0.14, pattern_period=2048, pattern_runs=2,
    ),
    DacapoSpec("luindex", 212, methods=300, seed=108),
)


def _lookup_spec(name: str) -> DacapoSpec:
    for spec in DACAPO_BENCHMARKS:
        if spec.name == name:
            return spec
    raise KeyError(f"no such benchmark: {name!r}")


def method_weights(spec: DacapoSpec) -> np.ndarray:
    """Zipf-like method-frequency distribution, seeded per benchmark.

    Method ids are assigned hot-first: id 0 is the hottest.  The
    pattern's leaf methods are ids ``0..period-1``, so the resonant
    regions involve methods that dominate the profile (as the paper's
    jython loop bodies do)."""
    ranks = np.arange(1, spec.methods + 1, dtype=np.float64)
    weights = 1.0 / ranks ** spec.zipf_s
    rng = np.random.default_rng(spec.seed)
    weights *= rng.uniform(0.7, 1.3, size=spec.methods)  # benchmark texture
    weights[::-1].sort()
    return weights / weights.sum()


def event_chunks(
    spec: DacapoSpec,
    scale: float = 0.1,
    seed: int = 0,
    chunk_size: int = 1 << 20,
) -> Iterator[np.ndarray]:
    """Yield the benchmark's method-invocation stream in int32 chunks.

    ``scale`` shrinks the paper's invocation count (pure-Python budget;
    see EXPERIMENTS.md).  ``seed`` perturbs the stream, for error-bar
    runs, without changing the benchmark's shape parameters.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    total = max(1, int(spec.invocations * scale))
    weights = method_weights(spec)
    rng = np.random.default_rng((spec.seed << 16) ^ seed)

    run_length = max(1, spec.pattern_period // spec.pattern_runs)
    pattern = np.repeat(
        np.arange(spec.pattern_runs, dtype=np.int32), run_length
    )
    pattern_block = np.tile(
        pattern, max(1, spec.pattern_block // pattern.size)
    )
    # Alternate random segments with patterned regions so that the
    # requested fraction of events is patterned.  Segment lengths are
    # multiples of a large power of two, keeping region starts
    # phase-aligned with power-of-two counters (resonance).
    if spec.pattern_fraction > 0:
        random_block = int(
            len(pattern_block) * (1 - spec.pattern_fraction)
            / spec.pattern_fraction
        )
        random_block = max(1 << 14, (random_block >> 14) << 14)
    else:
        random_block = total

    produced = 0
    buffer: List[np.ndarray] = []
    buffered = 0

    def flush_ready() -> Iterator[np.ndarray]:
        nonlocal buffer, buffered
        while buffered >= chunk_size:
            merged = np.concatenate(buffer)
            yield merged[:chunk_size]
            rest = merged[chunk_size:]
            buffer = [rest] if rest.size else []
            buffered = rest.size

    emitting_pattern = False
    while produced < total:
        if emitting_pattern and spec.pattern_fraction > 0:
            segment = pattern_block
        else:
            segment = rng.choice(
                spec.methods, size=random_block, p=weights
            ).astype(np.int32)
        emitting_pattern = not emitting_pattern
        remaining = total - produced
        if segment.size > remaining:
            segment = segment[:remaining]
        produced += segment.size
        buffer.append(segment)
        buffered += segment.size
        yield from flush_ready()
    if buffered:
        yield np.concatenate(buffer)
