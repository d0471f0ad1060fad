"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fig13-cold --seed 0 --seconds 20 --trace 0

Workloads (see ``README.md`` for why each was chosen):

* ``fig13-cold`` — ``repro.api.run_figure13`` on empty stores;
* ``fig12-cold`` — ``repro.api.run_figure12`` on empty stores;
* ``serve-warm`` — a ``repro serve`` process, pre-warmed with every
  distinct request of a seeded mix, driven by a closed loop of one
  client.

Host time is counted in CPU seconds of the process doing the work, at
the reference speed of ``probe.py``.  With ``--trace 0`` the run
reports the end-to-end metrics, measured with no tracing; with ``--trace 1`` it reports the per-layer metrics
of a traced pass, plus the tracing overhead against an untraced pass
of the same length.  Every output is checked against the digests
pinned in ``pins.json``.  The last line of standard output is the
result object; the whole result document, with the run metadata, is
written to ``.perfbench-results/``.  A mismatch exits 1; a run that
cannot measure (no ``src/repro`` beside the benchmark, a process that
fails or times out) exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import pathlib
import platform
import queue
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

import probe
import tracer
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = workloads.ROOT
RESULTS = ROOT / ".perfbench-results"

#: End-to-end metrics and their units, in ``BENCHMARK.json`` order.
END_TO_END = (("setup_s", "s"), ("cpu_s", "s"), ("sim_ips", "1/s"),
              ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"))

#: Whole run, set-up included, must end within this many seconds.
RUN_DEADLINE_S = 170.0
#: Set-ups measured per untraced run (median reported).
SETUPS = 3
#: Kernel repetitions of the speed probes that bracket a set-up.
SETUP_PROBE_REPS = 40
#: ``serve-warm`` reads the server's peak memory when this many timed
#: requests have been sent, so that it does not grow with throughput.
RSS_AT_REQUEST = 1000


class BenchError(RuntimeError):
    """The run could not measure; no result is printed."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline exceeded")
        return remaining


class Processes:
    """Every child process of the run; all are stopped and reaped on
    exit, whatever happens."""

    def __init__(self) -> None:
        self.children: List[subprocess.Popen] = []

    def start(self, argv: List[str], env: Dict[str, str], **kwargs
              ) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, **kwargs)
        self.children.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.children:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.children:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _lines(proc: subprocess.Popen) -> "queue.Queue[Optional[str]]":
    """Standard output of ``proc`` as a queue of lines (None at EOF)."""
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def pump() -> None:
        for raw in proc.stdout:
            lines.put(raw.decode("utf-8", "replace").rstrip("\n"))
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    return lines


def _next_line(lines, prefix: str, deadline: Deadline) -> str:
    while True:
        try:
            line = lines.get(timeout=deadline.left())
        except queue.Empty:
            raise BenchError(f"timed out waiting for {prefix!r}") from None
        if line is None:
            raise BenchError(f"child exited before printing {prefix!r}")
        if line.startswith(prefix):
            return line[len(prefix):]


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def round_quantile(rank: int, per_round: int) -> float:
    """The quantile of the ``rank``-th smallest of the ``per_round``
    operations that every round (or pass) repeats: the middle of that
    operation's block of copies in a sample of whole rounds, so that
    the value does not jump between two neighbouring operations with
    the noise."""
    return (rank - 0.5) / per_round


# ----------------------------------------------------------------------
# Cold workloads.


def _worker_argv(args, workdir: pathlib.Path,
                 setup_only: bool = False) -> List[str]:
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--profile", args.profile, "--workdir", str(workdir)]
    return argv + (["--setup-only"] if setup_only else [])


def _start_worker(procs: Processes, args, workdir: pathlib.Path,
                  deadline: Deadline, setup_only: bool = False):
    """Start a worker; (process, its stdout lines, CPU seconds of its
    set-up at reference speed).  The set-up is bracketed by probes."""
    workdir.mkdir(parents=True, exist_ok=True)
    before = probe.probe(SETUP_PROBE_REPS)
    with open(workdir / "stderr.log", "wb") as errors:
        proc = procs.start(_worker_argv(args, workdir, setup_only),
                           workloads.child_env(workdir),
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                           stderr=errors)
    lines = _lines(proc)
    ready = float(_next_line(lines, "READY ", deadline))
    if setup_only:
        proc.wait(timeout=deadline.left())
    after = probe.probe(SETUP_PROBE_REPS)
    if not setup_only:
        proc.stdin.write(b"GO\n")
        proc.stdin.close()
    return proc, lines, ready * probe.factor([before, after])


def _command_s(record) -> float:
    """A cold command's CPU seconds at reference speed."""
    return record["cpu_s"] * probe.factor(record["probes"])


def _window_s(record) -> List[float]:
    """The command's window CPU seconds at reference speed (the probe
    of window ``i`` follows its record)."""
    return [cpu * scale for cpu, scale in zip(
        record["window_cpu_s"], probe.local_factors(record["probes"]))]


def run_cold(args, workdir: pathlib.Path, procs: Processes,
             deadline: Deadline) -> Dict[str, Any]:
    setups = []
    if not args.trace:
        for index in range(SETUPS - 1):
            _, _, ready = _start_worker(procs, args,
                                        workdir / f"setup{index}",
                                        deadline, setup_only=True)
            setups.append(ready)
    proc, lines, ready = _start_worker(procs, args, workdir / "main",
                                       deadline)
    setups.append(ready)
    result = json.loads(_next_line(lines, "RESULT ", deadline))
    proc.wait(timeout=deadline.left())
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")

    command, profiles = workloads.COLD[args.workload]
    pins = workloads.load_pins()[args.workload][args.profile]
    attempted = failed = 0
    mismatches = []
    for record in result["records"]:
        pin = pins[record["variant"]]
        attempted += pin["windows"]
        if record["error"] is not None:
            failed += pin["windows"]
            mismatches.append(f"variant {record['variant']}: "
                              f"{record['error']}")
            continue
        failed += record["failed_windows"]
        for field in ("digest", "simulated_instructions",
                      "simulated_cycles", "windows"):
            if record[field] != pin[field]:
                failed += 1
                mismatches.append(
                    f"variant {record['variant']} round {record['round']}: "
                    f"{field} {record[field]} != pinned {pin[field]}")

    untraced = [r for r in result["records"] if r["phase"] == "untraced"]
    doc: Dict[str, Any] = {
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "versions": result["versions"],
        "commands": {"command": command,
                     "variants": profiles[args.profile],
                     "run": [{"variant": r["variant"], "round": r["round"],
                              "phase": r["phase"], "wall_s": r["wall_s"],
                              "cpu_s": r["cpu_s"],
                              "probe_s": statistics.fmean(r["probes"])}
                             for r in result["records"]]},
    }
    if not args.trace:
        windows = [w for r in untraced for w in _window_s(r)]
        # The tail leaves ten windows of every round beyond it (on a
        # round too small for that, it is the slowest window).
        per_round = sum(pin["windows"] for pin in pins)
        median_q = round_quantile((per_round + 1) // 2, per_round)
        tail_q = round_quantile(
            per_round - 10 if per_round > 20 else per_round, per_round)
        doc["metrics"] = {
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(_round_means(untraced)),
            "sim_ips": sum(r["simulated_instructions"] for r in untraced)
            / sum(_command_s(r) for r in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
            "op_p50_ms": 1000.0 * nearest_rank(windows, median_q),
            "op_tail_ms": 1000.0 * nearest_rank(windows, tail_q),
        }
        doc["samples"] = {"setups": setups, "windows": len(windows),
                          "p50_percentile": 100.0 * median_q,
                          "tail_percentile": 100.0 * tail_q,
                          "commands": len(untraced)}
        return doc

    traced = [r for r in result["records"] if r["phase"] == "traced"]
    spans = tracer.load_spans(result["spans"])
    wall = sum(r["wall_s"] for r in traced)
    metrics = tracer.layer_metrics(spans, len(traced), wall)
    metrics.update({
        "engine.windows": sum(r["windows"] for r in traced) / len(traced),
        "engine.cache_hits": sum(r["cache_hits"] for r in traced)
        / len(traced),
        "serve.coalesced_ratio": 0.0, "serve.shed": 0, "serve.errors": 0,
        "trace_overhead_ratio": statistics.median(_round_means(traced))
        / statistics.median(_round_means(untraced)),
    })
    doc["metrics"] = metrics
    doc["spans"] = spans
    doc["samples"] = {"commands": len(traced), "untraced": len(untraced)}
    return doc


def _round_means(records) -> List[float]:
    """Mean command time (CPU, at reference speed) of each round."""
    rounds: Dict[int, List[float]] = {}
    for record in records:
        rounds.setdefault(record["round"], []).append(_command_s(record))
    return [sum(times) / len(times) for times in rounds.values()]


# ----------------------------------------------------------------------
# serve-warm.


class Server:
    """One ``repro serve`` child process on a fresh store directory."""

    def __init__(self, procs: Processes, workdir: pathlib.Path,
                 fast: str, traced: bool) -> None:
        self.dir = workdir
        workdir.mkdir(parents=True)
        self.spans_path = workdir / "spans.jsonl"
        serve = ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--jobs", str(workloads.ENGINE["jobs"]),
                 "--cache-dir", str(workdir / "cache")]
        argv = ([sys.executable, str(HERE / "serve_traced.py"),
                 str(self.spans_path)] if traced
                else [sys.executable, "-m", "repro"]) + serve
        with open(workdir / "stderr.log", "wb") as errors:
            self.proc = procs.start(argv, workloads.child_env(workdir, fast),
                                    stdout=subprocess.DEVNULL, stderr=errors)
        self.port: Optional[int] = None

    def wait_listening(self, deadline: Deadline) -> None:
        pattern = re.compile(rb"listening on http://[\d.]+:(\d+)")
        while True:
            found = pattern.search((self.dir / "stderr.log").read_bytes())
            if found:
                self.port = int(found.group(1))
                return
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode}")
            deadline.left()
            time.sleep(0.01)

    def call(self, method: str, path: str,
             headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=60)
        try:
            connection.request(method, path, headers=headers or {})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stats(self) -> Dict[str, Any]:
        status, body = self.call("GET", "/statsz")
        if status != 200:
            raise BenchError(f"/statsz answered {status}")
        return json.loads(body)

    def thread_cpu_ns(self) -> Dict[str, int]:
        """CPU nanoseconds of each live thread of the server (schedstat,
        which leaves out steal time and time spent waiting for a CPU)."""
        times = {}
        for task in os.scandir(f"/proc/{self.proc.pid}/task"):
            try:
                with open(os.path.join(task.path, "schedstat")) as handle:
                    times[task.name] = int(handle.read().split()[0])
            except OSError:
                pass  # the thread ended
        return times

    def peak_rss_mb(self) -> float:
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def stop(self, deadline: Deadline) -> None:
        """Graceful drain, then wait for the process to end."""
        try:
            self.call("POST", "/v1/admin/drain")
        except OSError:
            pass
        try:
            self.proc.wait(timeout=min(30.0, deadline.left()))
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait(timeout=10)


def _figure_path(command: str, params: Dict[str, Any]) -> str:
    query = urllib.parse.urlencode(params)
    return f"/v1/figure/{command}" + (f"?{query}" if query else "")


def _sha256(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def _start_server(procs, workdir, args, traced, requests, pins,
                  deadline) -> Tuple[Server, float, int]:
    """Start and pre-warm one server: (server, CPU seconds of its
    set-up at reference speed, failed pre-warm requests).  The set-up
    is bracketed by speed probes."""
    before = probe.probe(SETUP_PROBE_REPS)
    server = Server(procs, workdir, workloads.ENGINE["fast"], traced)
    server.wait_listening(deadline)
    failed = 0
    for index, (command, params) in enumerate(requests):
        status, body = server.call(
            "GET", _figure_path(command, params),
            {tracer.REQUEST_HEADER: f"p{index}"})
        failed += status != 200 or _sha256(body) != pins[index]
    ready = sum(server.thread_cpu_ns().values()) / 1e9
    after = probe.probe(SETUP_PROBE_REPS)
    return server, ready * probe.factor([before, after]), failed


class Mix:
    """The order of the timed requests: passes over the mix, each pass
    every distinct request once plus a second copy of request
    ``EXTRA``, in an order drawn from the seed.  Every seed sends the
    same share of each request, and the odd pass length keeps the
    median of a run of whole passes inside one request's cluster of
    times rather than between two."""

    EXTRA = 0

    def __init__(self, count: int, seed: int) -> None:
        self.rng = random.Random(seed)
        self.kinds = list(range(count)) + [self.EXTRA]
        self.pending: List[int] = []

    def next(self) -> int:
        if not self.pending:
            self.pending = self.rng.sample(self.kinds, len(self.kinds))
        return self.pending.pop()

    def at_pass_end(self) -> bool:
        return not self.pending


def closed_loop(server: Server, requests, pins, mix: Mix, seconds: float,
                memory: Dict[str, float]) -> List[Dict[str, Any]]:
    """One client sending its next request when the previous one
    returns, for ``seconds`` and then to the end of the pass; one sample
    per request.  Each sample holds the client's wall-clock interval,
    the server's CPU seconds for the request and the speed probe taken
    just before it.  Before request ``RSS_AT_REQUEST`` is sent,
    ``memory["rss_mb"]`` takes the server's peak memory."""
    samples: List[Dict[str, Any]] = []
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at or not mix.at_pass_end():
        if len(samples) == RSS_AT_REQUEST:
            memory["rss_mb"] = server.peak_rss_mb()
        index = mix.next()
        rid = f"r{len(samples)}-{mix.rng.getrandbits(32):08x}"
        command, params = requests[index]
        speed = probe.probe()
        cpu_before = server.thread_cpu_ns()
        t0 = time.perf_counter()
        try:
            status, body = server.call(
                "GET", _figure_path(command, params),
                {tracer.REQUEST_HEADER: rid})
        except OSError as exc:
            status, body = 0, repr(exc).encode()
        t1 = time.perf_counter()
        cpu_ns = sum(ns - cpu_before.get(tid, 0)
                     for tid, ns in server.thread_cpu_ns().items())
        samples.append({"rid": rid, "request": index, "t0": t0, "t1": t1,
                        "cpu_s": cpu_ns / 1e9, "probe_s": speed,
                        "status": status,
                        "ok": status == 200
                        and _sha256(body) == pins[index]})
    return samples


def _serve_phase(server: Server, requests, pins, seed: int, seconds: float):
    """The timed closed loop, between two ``/statsz`` snapshots.  Every
    sample gets ``op_s``, the server's CPU seconds for it at reference
    speed; the result also gives the server's peak memory."""
    before = server.stats()
    memory: Dict[str, float] = {}
    samples = closed_loop(server, requests, pins, Mix(len(requests), seed),
                          seconds, memory)
    memory.setdefault("rss_mb", server.peak_rss_mb())
    scales = probe.local_factors([sample["probe_s"] for sample in samples])
    for sample, scale in zip(samples, scales):
        sample["op_s"] = sample["cpu_s"] * scale
    return before, server.stats(), samples, memory["rss_mb"]


def _delta(before, after, section: str, key: str) -> int:
    return after[section][key] - before[section][key]


def run_serve(args, workdir: pathlib.Path, procs: Processes,
              deadline: Deadline) -> Dict[str, Any]:
    variant = workloads.serve_variant(args.seed)
    requests = workloads.serve_requests(variant, args.profile)
    pins = workloads.load_pins()[workloads.SERVE][args.profile][variant]
    attempted = failed = 0
    setups = []

    def setup(name: str, traced: bool) -> Server:
        nonlocal attempted, failed
        server, seconds, bad = _start_server(
            procs, workdir / name, args, traced, requests, pins, deadline)
        setups.append(seconds)
        attempted += len(requests)
        failed += bad
        return server

    def account(samples) -> None:
        nonlocal attempted, failed
        attempted += len(samples)
        failed += sum(not sample["ok"] for sample in samples)

    doc: Dict[str, Any] = {"requests": [
        {"command": command, "params": params}
        for command, params in requests], "variant": variant}
    if not args.trace:
        for index in range(SETUPS - 1):
            setup(f"setup{index}", False).stop(deadline)
        server = setup("main", False)
        before, after, samples, rss = _serve_phase(
            server, requests, pins, args.seed, args.seconds)
        server.stop(deadline)
        account(samples)
        times = [s["op_s"] for s in samples]
        pass_length = len(requests) + 1
        median_q = round_quantile((pass_length + 1) // 2, pass_length)
        # The tail is the middle of the block of Figure 13, sent twice a
        # pass and among the slowest requests: a higher percentile moves
        # with the host's bursts more than with the program.
        tail_q = round_quantile(pass_length - 0.5, pass_length)
        served = _delta(before, after, "engine", "simulated_instructions")
        doc["metrics"] = {
            "setup_s": statistics.median(setups),
            "cpu_s": sum(times) / (len(samples) / pass_length),
            "sim_ips": served / sum(times),
            "peak_rss_mb": rss,
            "op_p50_ms": 1000.0 * nearest_rank(times, median_q),
            "op_tail_ms": 1000.0 * nearest_rank(times, tail_q),
        }
        doc["samples"] = {"setups": setups, "requests": len(samples),
                          "p50_percentile": 100.0 * median_q,
                          "tail_percentile": 100.0 * tail_q,
                          "request_p50_ms": {
                              index: 1000.0 * statistics.median(
                                  s["op_s"] for s in samples
                                  if s["request"] == index)
                              for index in range(len(requests))},
                          "latency_p50_ms": 1000.0 * statistics.median(
                              s["t1"] - s["t0"] for s in samples),
                          "rss_at_request": min(RSS_AT_REQUEST,
                                                len(samples)),
                          "windows": _delta(before, after, "engine",
                                            "windows")}
    else:
        half = args.seconds / 2
        server = setup("untraced", False)
        _, _, plain, _ = _serve_phase(server, requests, pins, args.seed,
                                      half)
        server.stop(deadline)
        account(plain)
        server = setup("traced", True)
        before, after, samples, _ = _serve_phase(
            server, requests, pins, args.seed, half)
        server.stop(deadline)
        account(samples)
        if not server.spans_path.exists():
            raise BenchError("traced server wrote no spans")
        doc["spans"] = spans = _merge_spans(
            samples, tracer.load_spans(server.spans_path))
        latencies = [s["t1"] - s["t0"] for s in samples]
        metrics = tracer.layer_metrics(spans, len(samples), sum(latencies))
        per_request = max(1, len(samples))
        metrics.update({
            "engine.windows": _delta(before, after, "engine", "windows")
            / per_request,
            "engine.cache_hits": _delta(before, after, "engine",
                                        "cache_hits") / per_request,
            "serve.coalesced_ratio": _delta(before, after, "serve",
                                            "coalesced")
            / max(1, _delta(before, after, "serve", "requests")),
            "serve.shed": _delta(before, after, "serve", "shed"),
            "serve.errors": _delta(before, after, "serve", "errors"),
            "trace_overhead_ratio": statistics.mean(
                s["op_s"] for s in samples)
            / statistics.mean(s["op_s"] for s in plain),
        })
        doc["metrics"] = metrics
        doc["samples"] = {"requests": len(samples), "untraced": len(plain)}
    doc.update(attempted=attempted, failed=failed, mismatches=[])
    if failed:
        doc["mismatches"].append(f"{failed} request(s) failed or mismatched")
    return doc


def _merge_spans(samples, server_spans) -> List[Dict[str, Any]]:
    """Client spans of the timed requests plus the server spans of the
    same requests, the server's handler parented on the client span."""
    rids = {sample["rid"] for sample in samples}
    spans = [{"id": f"c{s['rid']}", "parent": None, "name": "serve.client",
              "group": s["rid"], "t0": s["t0"], "t1": s["t1"], "attrs": {}}
             for s in samples]
    for span in server_spans:
        if span["group"] not in rids:
            continue
        if span["name"] == "serve.handle":
            span["parent"] = f"c{span['group']}"
        spans.append(span)
    return spans


# ----------------------------------------------------------------------


def run_meta(args, versions: Dict[str, str]) -> Dict[str, Any]:
    """What two runs must share to be compared."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "profile": args.profile, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"), "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "engine": workloads.ENGINE,
        "clients": 1 if args.workload == workloads.SERVE else None,
        "probe_reference_s": probe.REFERENCE_S,
    }


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"),
                        default="full",
                        help="input scale: tiny is for selftest.py")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro beside the benchmark; nothing to "
              "measure", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    probe.warm()
    procs = Processes()
    deadline = Deadline(RUN_DEADLINE_S)
    try:
        if args.workload == workloads.SERVE:
            doc = run_serve(args, workdir, procs, deadline)
            doc["versions"] = {"numpy": _numpy_version()}
        else:
            doc = run_cold(args, workdir, procs, deadline)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: {args.workload}: {exc!r}", file=sys.stderr)
        for log in sorted(workdir.rglob("stderr.log")):
            text = log.read_text(errors="replace").strip()
            if text:
                print(f"--- {log.relative_to(ROOT)}\n{text[-2000:]}",
                      file=sys.stderr)
        return 2
    finally:
        procs.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    return report(args, doc)


def report(args, doc: Dict[str, Any]) -> int:
    meta = run_meta(args, doc.pop("versions"))
    correct = doc["failed"] == 0 and not doc["mismatches"]
    spans = doc.pop("spans", None)
    if args.trace:
        units = dict(tracer.PER_LAYER)
        problems = tracer.check_tree(spans)
        doc["span_tree_problems"] = problems[:20]
        doc["largest_self_time"] = tracer.largest_self_time(doc["metrics"])
    else:
        units = dict(END_TO_END)
    metrics = {name: {"value": doc["metrics"][name], "unit": unit}
               for name, unit in units.items()}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        with open(RESULTS / f"{stem}.spans.jsonl", "w",
                  encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    full = dict(doc, meta=meta, correct=correct, metrics=metrics)
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} profile={args.profile}")
    for name, entry in metrics.items():
        print(f"  {name:30s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'error_rate':30s} "
          f"{doc['failed'] / max(1, doc['attempted']):>16.6g} "
          f"({doc['failed']}/{doc['attempted']} operations)")
    for key, value in sorted(doc.get("samples", {}).items()):
        print(f"  samples.{key} = {value}")
    if args.trace:
        print(f"  largest self-time layer: {doc['largest_self_time']}; "
              f"span tree problems: {len(problems)}")
    for line in doc["mismatches"][:10]:
        print(f"  MISMATCH {line}")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
