"""The process that runs a cold workload's simulations.

Started by ``run.py``; prints ``READY <CPU seconds so far>`` once
``repro`` is imported and a first engine with its stores exists (the
parent's set-up time), then runs rounds of commands and prints one
``RESULT <json>`` line.  Between ``READY`` and the first command
it waits for a line on standard input, so that the parent can close
the set-up's speed bracket (``probe.py``) with nothing else running.
Every command gets a fresh engine with empty result and trace stores
in its own directory, and the engine's JSONL window ledger.

    python3 perfbench/worker.py --workload fig13-cold --seed 0 \\
        --seconds 20 --trace 0 --workdir .perfbench-work/x [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import resource
import shutil
import sys
import time

import probe
import workloads


def _engine(directory: pathlib.Path, fast: str, ledger=None,
            probe_span=contextlib.nullcontext):
    from repro.engine import (EngineConfig, ExperimentEngine, ResultCache,
                              RunRecorder, TraceStore)

    class ClockedRecorder(RunRecorder):
        """The engine's recorder.  As each window record arrives it
        notes the (wall, CPU) clocks, less the time of earlier probes,
        then takes one speed probe (``probe.py``) inside
        ``probe_span()``."""

        def __init__(self, log_path) -> None:
            super().__init__(log_path)
            self.probes = []
            self.probe_wall = self.probe_cpu = 0.0
            self.clocks = [self._clock()]

        def _clock(self):
            return (time.perf_counter() - self.probe_wall,
                    time.process_time() - self.probe_cpu)

        def record(self, record) -> None:
            self.clocks.append(self._clock())
            with probe_span():
                wall = time.perf_counter()
                self.probes.append(probe.probe())
                self.probe_wall += time.perf_counter() - wall
            self.probe_cpu += self.probes[-1]
            super().record(record)

    config = EngineConfig(jobs=workloads.ENGINE["jobs"], fast=fast)
    return ExperimentEngine(
        config=config,
        cache=ResultCache(root=directory / "results",
                          policy=config.integrity),
        trace_store=TraceStore(directory / "traces",
                               policy=config.integrity),
        recorder=ClockedRecorder(ledger))


def _window_cpu(walls, clocks):
    """Each window's CPU seconds: its ledger wall time times the CPU
    share (CPU / wall) of the interval that ended with its record.  A
    batched window group's records arrive together, so a record
    closing an interval shorter than a millisecond takes the share of
    the interval before it."""
    shares, share = [], 1.0
    for (wall0, cpu0), (wall1, cpu1) in zip(clocks, clocks[1:]):
        if wall1 - wall0 >= 1e-3:
            share = min(1.0, (cpu1 - cpu0) / (wall1 - wall0))
        shares.append(share)
    return [wall * share for wall, share in zip(walls, shares)]


def _read_ledger(path: pathlib.Path):
    """(window wall seconds, cache hits, failures) from a ledger."""
    walls, hits, failed = [], 0, 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "record_type" in record:
                continue
            walls.append(record["wall_s"])
            hits += record["cache"] == "hit"
            failed += record["cache"] == "failed"
    return walls, hits, failed


def run_command(api, command: str, params, directory: pathlib.Path,
                fast: str, probe_span=contextlib.nullcontext):
    """One cold command on empty stores; the measurement record."""
    directory.mkdir(parents=True)
    ledger = directory / "ledger.jsonl"
    engine = _engine(directory, fast, ledger, probe_span)
    runner = getattr(api, f"run_{command}")
    started = time.perf_counter()
    cpu_started = time.process_time()
    error = None
    try:
        result = runner(engine=engine, **params)
    except Exception as exc:  # counted as a failure, the run goes on
        error = repr(exc)
        result = None
    recorder = engine.recorder
    wall = time.perf_counter() - started - recorder.probe_wall
    cpu = time.process_time() - cpu_started - recorder.probe_cpu
    summary = engine.summary()
    walls, hits, failed = _read_ledger(ledger)
    window_cpu = _window_cpu(walls, recorder.clocks)
    shutil.rmtree(directory)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "probes": recorder.probes or [probe.probe()],
        "error": error,
        "digest": (workloads.canonical_digest(result.data)
                   if result is not None else None),
        "simulated_instructions": summary["simulated_instructions"],
        "simulated_cycles": summary["simulated_cycles"],
        "windows": len(walls),
        "cache_hits": hits,
        "failed_windows": failed,
        "window_cpu_s": window_cpu,
    }


def _phase(api, command, variants, seed, budget, workdir, fast, label,
           start_round=0, probe_span=contextlib.nullcontext):
    """Whole rounds (every variant once), at least one, while another
    round of the length of the last one would end less than half a
    round past ``budget`` seconds."""
    records, rounds = [], 0
    started = time.perf_counter()
    round_s = 0.0
    while time.perf_counter() - started + round_s / 2 <= budget:
        round_started = time.perf_counter()
        order = workloads.round_order(seed, start_round + rounds,
                                      len(variants))
        for variant in order:
            record = run_command(
                api, command, variants[variant],
                workdir / f"{label}-{rounds}-{variant}", fast, probe_span)
            record.update(variant=variant, round=rounds, phase=label)
            records.append(record)
        rounds += 1
        round_s = time.perf_counter() - round_started
    return records, rounds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.COLD))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--profile", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workdir = pathlib.Path(args.workdir)

    from repro import api

    fast = workloads.ENGINE["fast"]
    _engine(workdir / "setup", fast)
    print(f"READY {time.process_time()}", flush=True)
    if args.setup_only:
        return 0
    # The parent probes the machine's speed while this process waits.
    sys.stdin.readline()
    probe.warm()

    command, profiles = workloads.COLD[args.workload]
    variants = profiles[args.profile]
    # One untimed command first, so that the process's first-call costs
    # (allocator growth, first touch of code and data) do not land on
    # a measured one.
    run_command(api, command, profiles["tiny"][0], workdir / "warmup",
                fast)
    result = {"records": []}
    if args.trace:
        half = args.seconds / 2
        records, rounds = _phase(api, command, variants, args.seed, half,
                                 workdir, fast, "untraced")
        import tracer

        spans = tracer.Tracer("w")
        tracer.install(spans)
        traced, _ = _phase(api, command, variants, args.seed, half,
                           workdir, fast, "traced", start_round=rounds,
                           probe_span=lambda: spans.span(tracer.PROBE))
        records += traced
        spans.dump(workdir / "spans.jsonl")
        result["spans"] = str(workdir / "spans.jsonl")
    else:
        records, _ = _phase(api, command, variants, args.seed, args.seconds,
                            workdir, fast, "untraced")
    result["records"] = records
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    import numpy

    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
