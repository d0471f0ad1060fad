"""Regression tests: simulator memory stays bounded on long runs.

The functional simulator's decode cache and the timing pipeline's
per-cycle bandwidth maps carry explicit bounds, so they grow with
program size, not with simulated time; these tests pin them over a
window of >16384 cycles.  The decode
cache's word table shares its bound.  The DaCapo streams' weighted
draw holds one slice of uniforms at a time, however many events it
draws.  A served warm request leaves the engine's run recorder a few
counters richer, not a record per window.
"""

import asyncio
import gc
import tracemalloc

import numpy as np

from repro.core.brr import BranchOnRandomUnit
from repro.engine import (
    EngineConfig,
    ExperimentEngine,
    ResultCache,
    TraceStore,
)
from repro.isa.asm import assemble
from repro.serve.service import SimulationService
from repro.sim.machine import Machine
from repro.sim.trap import BrrTrapEmulator
from repro.timing.pipeline import TimingSimulator, _Bandwidth
from repro.workloads.dacapo import (
    _DRAW_SLICE,
    DACAPO_BENCHMARKS,
    _WeightedDraw,
    method_weights,
)

#: A tight loop long enough to retire far more than 16384 cycles.
LONG_LOOP = """
    li r1, 20000
    li r2, 0
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


def _run_long_window():
    machine = Machine(assemble(LONG_LOOP))
    simulator = TimingSimulator()
    while not machine.halted:
        simulator.step(machine.step())
    return machine, simulator


class TestLongWindowBounds:
    def test_structures_bounded_over_long_window(self):
        machine, simulator = _run_long_window()
        assert simulator.stats.cycles > 16384  # the window is long enough
        assert len(machine._decode_cache) <= Machine.DECODE_CACHE_LIMIT
        # The decode cache tracks program size, not simulated time.
        assert len(machine._decode_cache) <= len(machine.program.words)
        for bandwidth in (simulator._decode_bw, simulator._issue_bw,
                          simulator._commit_bw):
            assert len(bandwidth._counts) <= (
                _Bandwidth.PRUNE_THRESHOLD + _Bandwidth.PRUNE_WINDOW)

    def test_bandwidth_prunes_stale_cycles(self):
        bandwidth = _Bandwidth(width=1)
        for cycle in range(_Bandwidth.PRUNE_THRESHOLD + 100):
            bandwidth.allocate(cycle)
        assert len(bandwidth._counts) <= (
            _Bandwidth.PRUNE_THRESHOLD + _Bandwidth.PRUNE_WINDOW)
        # Entries far behind the newest allocation are gone.
        assert 0 not in bandwidth._counts


class TestDecodeCacheEviction:
    def test_decode_cache_respects_limit(self):
        machine = Machine(assemble(LONG_LOOP), decode_cache_limit=3)
        machine.run(max_steps=200_000)
        assert len(machine._decode_cache) <= 3
        # Correctness is unaffected by eviction: the loop still
        # counted all 20000 iterations.
        assert machine.regs[2] == 20000

    def test_eviction_matches_unbounded_execution(self):
        bounded = Machine(assemble(LONG_LOOP), decode_cache_limit=2)
        unbounded = Machine(assemble(LONG_LOOP))
        bounded.run(max_steps=200_000)
        unbounded.run(max_steps=200_000)
        assert bounded.regs == unbounded.regs
        assert bounded.instret == unbounded.instret


#: A loop around a trap-mode (un-architected) ``brr``.
TRAP_LOOP = """
    li r1, 200
loop:
    brr 1/4, hit
back:
    addi r1, r1, -1
    bne r1, r0, loop
    halt
hit:
    addi r2, r2, 1
    jmp back
"""


class TestWordTableBounds:
    def test_word_table_respects_limit(self):
        machine = Machine(assemble(LONG_LOOP), decode_cache_limit=3)
        while not machine.halted:
            machine.step()
            assert len(machine._word_table) <= 3
        assert machine.regs[2] == 20000

    def test_trapped_word_enters_neither_table(self):
        program = assemble(TRAP_LOOP, brr_mode="trap")
        machine = Machine(program)
        emulator = BrrTrapEmulator(BranchOnRandomUnit())
        emulator.install(machine)
        machine.run(max_steps=10_000)
        assert emulator.traps == 200
        trap_pc = program.address_of("loop")
        trap_word = machine.memory.load_word(trap_pc)
        assert trap_pc not in machine._decode_cache
        assert trap_word not in machine._word_table
        assert machine._word_table


class TestWeightedDrawMemory:
    def test_draw_peak_is_result_plus_one_slice(self):
        """``Generator.choice`` holds ``size`` float64 uniforms and
        ``size`` int64 indices at once (16 bytes per event).  The
        bucketed draw holds its int32 result plus one slice of
        temporaries: the scaled uniforms, their bucket indices and the
        unresolved mask (17 bytes per slice event)."""
        size = 1 << 23
        draw = _WeightedDraw(method_weights(DACAPO_BENCHMARKS[-1]))
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            events = draw(rng, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert events.size == size
        bound = 4 * size + 20 * _DRAW_SLICE
        assert bound < 16 * size
        assert peak < bound, f"peak {peak} bytes, bound {bound}"


#: The served request mix of the repository benchmark, at its tiny
#: input scale: Figures 13/14/2 share their windows, a sampled Figure
#: 13 selects half of them, and Figure 12 (one sampled cell), Figures
#: 9/10 and the cost table bring their own.
_MICRO = {"scale": 12, "seed": 1}
SERVED_MIX = (
    ("figure13", _MICRO),
    ("figure14", _MICRO),
    ("figure2", _MICRO),
    ("figure13", dict(_MICRO, sample="fraction:0.5")),
    ("figure12", {"scale": 0.25, "interval": 1024, "sample": "budget:1"}),
    ("figure9", {"scale": 0.001, "seed": 0}),
    ("figure10", {"scale": 0.001, "seed": 0}),
    ("cost", {}),
)


class TestServedRequestMemory:
    def test_warm_requests_retain_under_2kib_each(self, tmp_path):
        """A warm request leaves the engine a few counters richer: it
        keeps no record per window, and of the plan records only the
        last :data:`PLAN_HISTORY`, so 200 warm requests of this mix
        retain under 2 KiB each."""
        engine = ExperimentEngine(
            config=EngineConfig(jobs=1),
            cache=ResultCache(root=tmp_path / "results"),
            trace_store=TraceStore(tmp_path / "traces"))
        service = SimulationService(engine=engine)
        loop = asyncio.new_event_loop()

        def serve(requests):
            for index in range(requests):
                command, params = SERVED_MIX[index % len(SERVED_MIX)]
                loop.run_until_complete(service.submit(command, params))

        try:
            serve(2 * len(SERVED_MIX))  # cold pass, then a warm one
            warm = engine.summary()
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                serve(200)
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            summary = engine.summary()
        finally:
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()
        served = summary["windows"] - warm["windows"]
        assert served > 200 * 20
        assert summary["cache_hits"] - warm["cache_hits"] == served
        assert retained / 200 < 2048, f"{retained / 200:.0f} B/request"
