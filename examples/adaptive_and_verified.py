#!/usr/bin/env python3
"""Two deeper mechanisms end to end: verified timing simulation and
ISA-level convergent profiling.

Part 1 runs the Section 5.1 *timing-first* methodology: the timing
simulator leads, a golden functional model re-executes and verifies
every retired instruction, and branch-on-random outcomes are forwarded
leader→golden so both take identical branches.

Part 2 closes the Section 7 convergent-profiling loop on a running
program: a controller watches the microbenchmark's edge counters and
re-encodes each site's sampling rate by patching the 4-bit freq field
of its ``brr`` instruction in simulated memory.

Run:  python examples/adaptive_and_verified.py
"""

from repro.core import BranchOnRandomUnit, Lfsr
from repro.sampling import ConvergentController
from repro.timing import CoSimulator
from repro.workloads import get_workload
from repro.workloads.text import class_counts


def demo_cosim() -> None:
    bench = get_workload("microbench", n_chars=1500, variant="no-dup",
                         kind="brr", interval=16, seed=2).raw
    cosim = CoSimulator(bench.program,
                        brr_unit=BranchOnRandomUnit(Lfsr(20, seed=0xFACE)))
    cosim.setup(bench.load_text)
    stats = cosim.run()
    checksum, __ = bench.read_results(cosim.golden)
    print("1. timing-first co-simulation:")
    print(f"   {cosim.verified} instructions verified against the golden "
          f"model; {stats.brr_resolved} brr outcomes forwarded")
    print(f"   golden checksum {checksum:#010x} == expected "
          f"{bench.expected_checksum:#010x}: "
          f"{checksum == bench.expected_checksum}")
    print(f"   window: {stats.cycles} cycles, IPC {stats.ipc:.2f}")


def demo_convergent() -> None:
    bench = get_workload("microbench", n_chars=24_000, variant="no-dup",
                         kind="brr", interval=1024, seed=4).raw
    machine = bench.make_machine(
        brr_unit=BranchOnRandomUnit(Lfsr(20, seed=0x2468)))
    controller = ConvergentController(
        machine, bench.brr_site_bindings(),
        initial_field=1,      # start fast: 1/4
        max_field=7,          # back off to 1/256
        stable_polls_to_backoff=2,
        share_tolerance=0.04,
    )
    controller.run(steps_per_poll=10_000, polls=60)

    lower, upper, other = class_counts(bench.text)
    total = lower + 2 * (upper + other)
    true_shares = {0: (upper + other) / total, 1: lower / total,
                   2: upper / total, 3: other / total}
    print("\n2. convergent profiling by brr freq-field patching:")
    print(f"   {'site':<6} {'final rate':>11} {'est. share':>11} "
          f"{'true share':>11} {'samples':>8}")
    for site, info in sorted(controller.summary().items()):
        print(f"   {site:<6} {'1/' + str(int(info['interval'])):>11} "
              f"{info['share']:>11.3f} {true_shares[site]:>11.3f} "
              f"{int(info['samples']):>8}")
    print("   every site converged from 1/4 toward 1/256 as its share "
          "stabilised,\n   spending samples only while information was "
          "still being learned.")


if __name__ == "__main__":
    demo_cosim()
    demo_convergent()
