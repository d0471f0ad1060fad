"""Self-test of the benchmark, at tiny scale (about two minutes):

    python3 perfbench/selftest.py

For every workload it runs ``run.py --profile tiny`` untraced on the
default seed (0) and traced on the held-out seed (1), and asserts that

* the run exits 0 and its last line is the result object, with every
  metric ``BENCHMARK.json`` names, in its unit, and ``correct`` true
  (every digest matched its pin);
* the traced run's span tree is well formed: every parent exists and
  every child lies inside its parent's interval, and every span below
  a window or request carries that window's or request's group id.

Last, it checks that the benchmark refuses to run, printing no
result, in a directory holding only ``BENCHMARK.json`` and
``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import tracer
import workloads

ROOT = workloads.ROOT
SECONDS = "2"


def _run(workload: str, seed: int, trace: int, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", SECONDS, "--trace",
            str(trace), "--profile", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_run(workload: str, seed: int, trace: int, spec) -> None:
    done = _run(workload, seed, trace)
    label = f"{workload} seed={seed} trace={trace}"
    assert done.returncode == 0, f"{label}: exit {done.returncode}\n" \
        f"{done.stdout[-3000:]}\n{done.stderr[-3000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, label
    assert result["attempted"] >= 1, label
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        entry = result["metrics"].get(metric["name"])
        assert entry is not None, f"{label}: {metric['name']} missing"
        assert entry["unit"] == metric["unit"], f"{label}: {metric['name']}"
        assert isinstance(entry["value"], (int, float)), metric["name"]
    assert len(result["metrics"]) == len(wanted), label
    if trace:
        stem = f"{workload}-seed{seed}-trace1"
        spans = tracer.load_spans(
            ROOT / ".perfbench-results" / f"{stem}.spans.jsonl")
        assert spans, f"{label}: no spans"
        problems = tracer.check_tree(spans)
        assert not problems, f"{label}: {problems[:5]}"
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            parent = by_id.get(span["parent"])
            if parent is not None and parent["group"] is not None:
                assert span["group"] == parent["group"], \
                    f"{label}: {span['name']} left its group"
        names = {span["name"] for span in spans}
        expected = ({"serve.client", "serve.handle", "serve.submit",
                     "store.results.get"} if workload == workloads.SERVE
                    else {"experiments.run", "engine.window", "sim.record",
                          "timing.replay", "store.results.put",
                          "workloads.build"})
        assert expected <= names, f"{label}: missing {expected - names}"
    print(f"ok  {label}: {len(result['metrics'])} metrics, "
          f"{result['attempted']} operations", flush=True)


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("fig13-cold", 0, 0, cwd=bare)
        assert done.returncode != 0, "ran without the program"
        assert '"correct"' not in done.stdout, "printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/repro", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        check_run(workload, 0, 0, spec)
        check_run(workload, 1, 1, spec)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
