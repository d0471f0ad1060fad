"""The machine-speed probe, and how the benchmark counts host time.

The measuring machine is a few vCPUs of a shared host.  Two things
move a raw wall-clock time there with the program unchanged:

* *waiting*: the host runs another tenant on our vCPU (steal time), or
  another process of the machine holds the CPU;
* *speed*: the same instructions take longer while the host is busy
  (shared caches and memory bandwidth, clock frequency).  On the
  machine the benchmark was written on, such phases last minutes and
  make every instruction up to 2.6 times slower.

The benchmark therefore times work in **CPU seconds of the process
that does it** (``CLOCK_PROCESS_CPUTIME_ID``, or ``/proc`` schedstat
for another process), which leaves out waiting: on a kernel built with
``CONFIG_PARAVIRT_TIME_ACCOUNTING`` steal time is not charged to the
task.  For speed, the benchmark interleaves probes with the timed work:
one repetition of a fixed kernel (interpreted Python, as in functional
recording, and small numpy array operations, as in the vector replay
kernel), timed the same way, after every window record of a cold
command and before every served request.  A time is then reported at
reference speed:

    reported = measured * REFERENCE_S / mean(probes taken during it)

where a single window or request counts as taken during it the probes
within ``REACH`` places of its own.

``REFERENCE_S`` is a constant: about the kernel's time on the machine
the benchmark was written on (2 vCPUs of an Intel Xeon host, Python
3.11, numpy 2.4) when that machine was quiet.  A program change moves
the measured time and leaves the probes unchanged, so it moves the
reported time by the same share; a slower host moves both.  Probe time
is never counted in the measured time.

    python3 perfbench/probe.py     # print ten probes of 40 repetitions
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy

#: CPU seconds of one repetition of the kernel at reference speed.
REFERENCE_S = 0.0025

_ARRAY = numpy.arange(4096, dtype=numpy.int64)


def _kernel() -> int:
    table = {}
    total = 0
    for i in range(6000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(i)) if i & 7 else table[key] & 15
    items = sorted(table.items(), key=lambda item: (item[1], item[0]))
    total += items[0][0]
    values = _ARRAY
    for shift in range(1, 40):
        mixed = (values * shift) ^ (values >> 3)
        mask = mixed % 7 < 3
        total += int(numpy.count_nonzero(mask))
        values = numpy.where(mask, mixed & 4095, values)
    return total


def warm() -> None:
    """Pay the first-call costs of the kernel, so that they do not land
    on a probe."""
    probe(40)


def probe(reps: int = 1) -> float:
    """CPU seconds per repetition of the kernel now, in this process,
    over ``reps`` repetitions."""
    started = time.process_time()
    for _ in range(reps):
        _kernel()
    return (time.process_time() - started) / reps


def factor(probes: Sequence[float]) -> float:
    """Scale of a time measured while ``probes`` were taken to
    reference speed."""
    return REFERENCE_S / statistics.fmean(probes)


#: A single operation is scaled by the probes taken within this many
#: places of its own in the sequence of operations.
REACH = 3


def local_factors(probes: Sequence[float]) -> List[float]:
    """Scales of a sequence of operations, the ``i``-th timed next to
    ``probes[i]``, each from the probes within ``REACH`` places of it:
    the host's speed drifts within seconds, one probe alone is noisy."""
    return [factor(probes[max(0, i - REACH):i + REACH + 1])
            for i in range(len(probes))]


if __name__ == "__main__":
    warm()
    for _ in range(10):
        print(f"{probe(40):.6f}")
