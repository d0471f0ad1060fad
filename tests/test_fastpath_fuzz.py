"""Differential fuzzing: fastpath kernel == golden simulator, always.

Seeded random programs exercising every branch class the timing model
distinguishes — conditionals, branch-on-random (brr and brra), direct
jumps, calls, returns, non-return indirect jumps — plus load/store
mixes that hit and miss the I$/D$/L2, ROB and physical-register
stalls, and marker-partitioned replay windows.  Each program is
recorded once and replayed through both implementations under several
timing configurations (paper, naive-brr ablation, shared-LFSR
arbitration, and a deliberately tiny "stress" machine that forces
cache evictions, BTB/predictor aliasing and RAS overflow); the
resulting :class:`~repro.timing.pipeline.TimingStats` must be
byte-for-byte identical.
"""

import random

import pytest

from repro.core.brr import BranchOnRandomUnit
from repro.core.lfsr import Lfsr
from repro.isa.asm import assemble
from repro.timing.config import NAIVE_BRR_CONFIG, PAPER_CONFIG, TimingConfig
from repro.timing.runner import (
    _replay_solver,
    record_window,
    replay_window,
    time_window,
)

#: A tiny machine: 8-set L1s, 32-set L2, 16-entry BTB, 2-entry RAS,
#: 8-entry ROB and 4 rename registers — every structural hazard the
#: model knows fires constantly.
STRESS_CONFIG = TimingConfig(
    fetch_width=2, decode_width=2, issue_width=2, commit_width=2,
    rob_entries=8, phys_regs=20, frontend_depth=3, backend_penalty=7,
    gshare_history_bits=6, bimodal_entries=256, chooser_entries=64,
    btb_entries=16, ras_entries=2,
    l1i_size=1024, l1i_assoc=2, l1d_size=1024, l1d_assoc=2,
    l2_size=4096, l2_assoc=2, l2_latency=4, memory_latency=30,
)

SHARED_LFSR_CONFIG = PAPER_CONFIG.with_overrides(brr_shared_lfsr=True)

CONFIGS = [
    ("paper", PAPER_CONFIG),
    ("naive-brr", NAIVE_BRR_CONFIG),
    ("shared-lfsr", SHARED_LFSR_CONFIG),
    ("stress", STRESS_CONFIG),
]


def _block(rng: random.Random, n: int, lines) -> None:
    """Append one randomly chosen work block (labels unique per n)."""
    kind = rng.choice(
        ["arith", "load", "store", "cond", "loop", "call", "indirect",
         "brr", "brra", "jmp"])
    a = rng.randrange(2, 9)
    b = rng.randrange(2, 9)
    off = 4 * rng.randrange(0, 128)
    if kind == "arith":
        lines.append(rng.choice([
            f"addi r{a}, r{b}, {rng.randrange(-64, 64)}",
            f"add r{a}, r{b}, r{rng.randrange(2, 9)}",
            f"mul r{a}, r{b}, r{rng.randrange(2, 9)}",
            f"xor r{a}, r{a}, r{b}",
        ]))
    elif kind == "load":
        lines.append(rng.choice([f"lw r{a}, {off}(r1)",
                                 f"lb r{a}, {off}(r1)"]))
    elif kind == "store":
        lines.append(rng.choice([f"sw r{a}, {off}(r1)",
                                 f"sb r{a}, {off}(r1)"]))
    elif kind == "cond":
        op = rng.choice(["beq", "bne", "blt", "bge"])
        lines.append(f"addi r10, r10, 1")
        lines.append(f"andi r11, r10, {rng.choice([1, 3, 7])}")
        lines.append(f"{op} r11, r{rng.choice([0, b])}, skip{n}")
        lines.append(f"addi r{a}, r{a}, 1")
        lines.append(f"skip{n}:")
    elif kind == "loop":
        count = rng.randrange(2, 9)
        lines.append(f"li r12, {count}")
        lines.append(f"loop{n}:")
        lines.append(f"addi r{a}, r{a}, {rng.randrange(1, 5)}")
        if rng.random() < 0.4:
            lines.append(f"lw r{b}, {off}(r1)")
        lines.append("addi r12, r12, -1")
        lines.append(f"bne r12, r0, loop{n}")
    elif kind == "call":
        lines.append(f"jal helper{rng.randrange(3)}")
    elif kind == "indirect":
        lines.append("jal trampoline")
    elif kind == "brr":
        interval = rng.choice([2, 4, 16, 64])
        lines.append(f"brr 1/{interval}, sampled{n}")
        lines.append(f"addi r{a}, r{a}, 2")
        lines.append(f"sampled{n}:")
    elif kind == "brra":
        lines.append(f"brra always{n}")
        lines.append(f"always{n}:")
        lines.append(f"addi r{a}, r{a}, 3")
    elif kind == "jmp":
        lines.append(f"jmp ahead{n}")
        lines.append(f"ahead{n}:")


def fuzz_program(seed: int, blocks: int = 36) -> str:
    """A random-but-deterministic program with markers 1/2/3."""
    rng = random.Random(seed)
    lines = [
        "li r1, 65536",        # data buffer base, far above the code
        "li r10, 0",
        "marker 1",
    ]
    n = 0
    for _ in range(blocks // 3):
        _block(rng, n, lines)
        n += 1
    lines.append("marker 2")
    for _ in range(blocks - blocks // 3):
        _block(rng, n, lines)
        n += 1
    lines.append("marker 3")
    lines.append("halt")
    # Helpers: plain return, memory-touching return, and a non-return
    # indirect exit (jr through a copied link register, so the timing
    # model steers it via the BTB, not the RAS).
    lines += [
        "helper0:",
        "addi r4, r4, 3",
        "ret",
        "helper1:",
        "lw r5, 4(r1)",
        "sw r5, 8(r1)",
        "ret",
        "helper2:",
        "addi r13, lr, 0",     # save the link register across the nest
        "jal helper0",
        "addi lr, r13, 0",
        "ret",
        "trampoline:",
        "addi r9, lr, 0",
        "addi r4, r4, 1",
        "jr r9",
    ]
    return "\n".join(lines)


def _brr_unit(seed: int) -> BranchOnRandomUnit:
    return BranchOnRandomUnit(Lfsr(20, seed=(0xACE1 + seed * 977) & 0xFFFFF
                                   or 1))


#: Both fast kernels answer to the same oracle.  The ``vector`` cases
#: enter past admission's cost check, so these dense windows — which
#: production routes straight to the loop kernel — reach the solver.
KERNELS = ("loop", "vector")


def _replay(kernel, trace, **kwargs):
    if kernel == "vector":
        return _replay_solver(trace, **kwargs)
    return replay_window(trace, fast=kernel, **kwargs)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name,config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_fastpath_matches_golden(seed, name, config, kernel, solver_calls):
    program = assemble(fuzz_program(seed))
    trace = record_window(program, end=(3, 1), brr_unit=_brr_unit(seed))
    fast_forward = (1, 1) if seed % 2 else None
    golden = replay_window(trace, begin=(2, 1), end=(3, 1), config=config,
                           fast_forward=fast_forward, program=program,
                           fast="off")
    fast = _replay(kernel, trace, begin=(2, 1), end=(3, 1), config=config,
                   fast_forward=fast_forward, program=program)
    assert fast.stats == golden.stats
    # Every vector case but the shared-LFSR ones (an exactness limit
    # of admission) must exercise the solver: 18 of 24.
    assert bool(solver_calls) == (kernel == "vector"
                                  and not config.brr_shared_lfsr)
    assert fast.total_steps == golden.total_steps
    # And both equal the lock-step reference (fresh machine).
    lockstep = time_window(program, begin=(2, 1), end=(3, 1), config=config,
                           fast_forward=fast_forward,
                           brr_unit=_brr_unit(seed))
    assert fast.stats == lockstep.stats


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", [17, 23])
def test_fastpath_matches_golden_without_prewarm(seed, kernel,
                                                  solver_calls):
    program = assemble(fuzz_program(seed, blocks=24))
    trace = record_window(program, end=(3, 1), brr_unit=_brr_unit(seed))
    for config in (PAPER_CONFIG, STRESS_CONFIG):
        golden = replay_window(trace, begin=(2, 1), end=(3, 1),
                               config=config, program=program,
                               prewarm_code=False, fast="off")
        fast = _replay(kernel, trace, begin=(2, 1), end=(3, 1),
                       config=config, program=program, prewarm_code=False)
        assert fast.stats == golden.stats
    assert len(solver_calls) == (2 if kernel == "vector" else 0)


def test_zero_length_measured_window():
    # begin == end: the measured window is empty; both paths must
    # report all-zero deltas.
    program = assemble(fuzz_program(3, blocks=12))
    trace = record_window(program, end=(3, 1), brr_unit=_brr_unit(3))
    golden = replay_window(trace, begin=(3, 1), end=(3, 1),
                           program=program, fast="off")
    fast = replay_window(trace, begin=(3, 1), end=(3, 1),
                         program=program, fast="vector")
    assert fast.stats == golden.stats
    assert fast.instructions == 0


def test_trapped_trace_falls_back_to_golden_error():
    # Trap-emulated brr records carry no decoded instruction; the fast
    # path bails out and the golden path raises its usual error.
    source = """
        marker 1
        li r3, 4
    loop:
        brr 1/4, hit
    hit:
        addi r3, r3, -1
        bne r3, r0, loop
        marker 2
        halt
    """
    from repro.sim.trap import BrrTrapEmulator

    program = assemble(source, brr_mode="trap")
    emulator = BrrTrapEmulator(_brr_unit(1))
    trace = record_window(program, end=(2, 1), setup=emulator.install)
    with pytest.raises(ValueError, match="trap-emulated"):
        replay_window(trace, begin=(1, 1), end=(2, 1), program=program,
                      fast="vector")
