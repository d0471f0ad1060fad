"""Command-line interface: regenerate any of the paper's figures.

Usage::

    python -m repro figure9 [--scale 0.05] [--sample fraction:0.25] [--seed N]
    python -m repro figure10 [--scale 0.05] [--sample fraction:0.25] [--seed N]
    python -m repro figure12 [--scale 3] [--sample budget:3] [--seed N]
    python -m repro figure13 [--scale 4000] [--sample fraction:0.25] [--seed N]
    python -m repro figure14 [--scale 4000] [--sample adaptive:12] [--seed N]
    python -m repro figure2  [--scale 4000] [--seed N]
    python -m repro sensitivity [--scale 0.02]
    python -m repro cost
    python -m repro scorecard  # PASS/FAIL every headline claim (~1 min)
    python -m repro fuzz [--scale 25] [--seed N]  # cross-path differential fuzz
    python -m repro entropy [--scale 64] [--sample budget:12] [--seed N]
    python -m repro all      # everything (several minutes)
    python -m repro cache [stats|prune|clear] [--store results|traces|all]
    python -m repro bench    # fastpath-vs-golden replay benchmark
    python -m repro resume RUN.jsonl   # finish an interrupted run
    python -m repro doctor [RUN.jsonl] [--repair]  # integrity audit
    python -m repro serve [--host H] [--port P]  # HTTP simulation service
    python -m repro chaos-serve [--rate 0.2] [--requests 6]  # chaos harness

``--scale`` is the one scaling knob and is interpreted per command:
fraction of the paper's invocation counts for the accuracy figures
(default 0.05), outer-loop multiplier for figure12 (default 3),
microbenchmark characters for figures 13/14/2 (default 4000),
generated windows for `fuzz` (default 25), and measured-loop
iterations for `entropy` (default 64).

Every command handler routes through :mod:`repro.api`, so ``python -m
repro X`` and ``repro.api.run_X()`` are the same code path.
Execution goes through the shared :mod:`repro.engine` (see
``docs/engine.md``): ``--jobs N`` / ``REPRO_JOBS`` fans simulation
windows out across worker processes with per-window ``--timeout``,
bounded ``--retries`` and a ``--failure-policy`` (``raise`` | ``retry``
| ``skip``); results are memoised under ``REPRO_CACHE_DIR`` (default
``~/.cache/repro``), and completed windows are durably cached the
moment they finish, so ``repro resume <run.jsonl>`` replays an
interrupted invocation and executes only the missing windows.  Timed
windows record/replay functional traces through the store described in
``docs/trace_format.md`` (``REPRO_TRACE=0`` disables), ``--sample``
runs a figure's window population under a sampling plan
(``exhaustive`` | ``fraction:F`` | ``budget:N`` | ``adaptive:N`` —
see ``docs/sampling.md``) and reports estimates with confidence
intervals instead of the exhaustive table, ``--seed`` pins the uniform
experiment seed (workloads and plan selection; also ``REPRO_SEED``),
``--json``
switches stdout to a machine-readable document per command, and
``--out DIR`` additionally writes ``<command>.txt`` (plus
``BENCH_<command>.json`` and the per-window ``BENCH_windows.jsonl``
trajectory in ``--json`` mode).  ``scorecard`` exits non-zero when any
headline claim fails, ``fuzz`` exits non-zero on any cross-path
divergence (and writes ``FUZZ_divergences.jsonl`` under ``--out``);
``cache`` inspects or maintains both on-disk stores.

Both stores are checksummed end to end (``docs/integrity.md``):
``--integrity`` (or ``REPRO_INTEGRITY``) picks what a corrupt entry
becomes — ``repair`` (the default: quarantine and transparently
re-execute), ``verify`` (quarantine and fail) or ``trust`` — and
``repro doctor [RUN.jsonl]`` audits every store entry plus an optional
run ledger, exiting non-zero on unrepaired corruption (``--repair``
quarantines/rewrites in place).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from .engine import (
    INTEGRITY_POLICIES,
    EngineConfig,
    ExperimentEngine,
    ResultCache,
    RunRecorder,
    format_doctor,
    read_run_log,
    read_run_log_checked,
    run_doctor,
    set_engine,
)
from .engine.cache import cache_enabled_by_env

#: (data, text) produced by one command.
CommandResult = Tuple[Any, str]

#: Per-command defaults of the unified ``--scale`` flag.
ACCURACY_SCALE_DEFAULT = 0.05
JVM_SCALE_DEFAULT = 3.0
MICRO_CHARS_DEFAULT = 4000


def _accuracy_scale(args) -> float:
    return ACCURACY_SCALE_DEFAULT if args.scale is None else args.scale


def _fig12_scale(args) -> float:
    """Figure 12's ``--scale`` (outer-loop multiplier)."""
    return JVM_SCALE_DEFAULT if args.scale is None else args.scale


def _micro_chars(args) -> int:
    """Figures 13/14/2's ``--scale`` (microbenchmark characters)."""
    return MICRO_CHARS_DEFAULT if args.scale is None else int(args.scale)


def _figure9(args) -> CommandResult:
    from . import api

    result = api.run_figure9(scale=_accuracy_scale(args),
                             sample=args.sample, seed=args.seed)
    return result.data, result.text


def _figure10(args) -> CommandResult:
    from . import api

    result = api.run_figure10(scale=_accuracy_scale(args),
                              sample=args.sample, seed=args.seed)
    return result.data, result.text


def _figure12(args) -> CommandResult:
    from . import api

    result = api.run_figure12(scale=_fig12_scale(args),
                              sample=args.sample, seed=args.seed)
    return result.data, result.text


def _figure13(args) -> CommandResult:
    from . import api

    result = api.run_figure13(scale=_micro_chars(args),
                              sample=args.sample, seed=args.seed)
    return result.data, result.text


def _figure14(args) -> CommandResult:
    from . import api

    result = api.run_figure14(scale=_micro_chars(args),
                              sample=args.sample, seed=args.seed)
    return result.data, result.text


def _figure2(args) -> CommandResult:
    from . import api

    result = api.run_figure2(scale=_micro_chars(args), seed=args.seed)
    return result.data, result.text


def _sensitivity(args) -> CommandResult:
    from . import api

    result = api.run_sensitivity(scale=_accuracy_scale(args),
                                 chars=_micro_chars(args))
    return result.data, result.text


def _cost(args) -> CommandResult:
    from . import api

    result = api.run_cost()
    return result.data, result.text


def _scorecard(args) -> CommandResult:
    from . import api

    result = api.run_scorecard(quick=_accuracy_scale(args) <= 0.02)
    return result.data, result.text


def _fuzz(args) -> CommandResult:
    from . import api

    windows = 25 if args.scale is None else int(args.scale)
    result = api.run_fuzz(windows=windows, seed=args.seed,
                          serve_diff=args.serve_diff)
    return result.data, result.text


def _entropy(args) -> CommandResult:
    from . import api

    iterations = 64 if args.scale is None else int(args.scale)
    result = api.run_entropy(scale=iterations, sample=args.sample,
                             seed=args.seed)
    return result.data, result.text


COMMANDS = {
    "figure9": _figure9,
    "figure10": _figure10,
    "figure12": _figure12,
    "figure13": _figure13,
    "figure14": _figure14,
    "figure2": _figure2,
    "sensitivity": _sensitivity,
    "cost": _cost,
    "scorecard": _scorecard,
    "fuzz": _fuzz,
    "entropy": _entropy,
}

#: Commands whose window population honours ``--sample``.
SAMPLED_COMMANDS = ("figure9", "figure10", "figure12", "figure13",
                    "figure14", "entropy")

#: Commands whose workload/plan seeding honours ``--seed``.
SEEDED_COMMANDS = SAMPLED_COMMANDS + ("figure2", "fuzz", "chaos-serve")

#: ``repro cache`` actions; the command lives outside COMMANDS so that
#: ``repro all`` regenerates figures without touching the stores.
CACHE_ACTIONS = ("stats", "prune", "clear")


def _bench_command(args, out_dir: Optional[pathlib.Path]) -> Tuple[Any, str, int]:
    """``repro bench``: fastpath-vs-golden replay benchmark.

    Runs the 19 scorecard windows through both replay implementations
    (cold: record in memory, bypass both stores), asserts the stats
    are byte-identical, and emits the machine-readable perf trajectory
    as ``BENCH_timing.json`` when ``--out`` is given.  Exits non-zero
    on any divergence — this is the CI perf-smoke gate.
    """
    from .experiments import bench_timing, format_bench

    data = bench_timing()
    if out_dir is not None:
        (out_dir / "BENCH_timing.json").write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data, format_bench(data), 0 if data["aggregate"]["identical"] else 1


def _cache_command(args, engine: ExperimentEngine) -> CommandResult:
    """Inspect or maintain the result cache and/or the trace store.

    ``--store`` narrows the action to one store; the default acts on
    both, which is what the pre-selector command always did.
    """
    action = args.action or "stats"
    selector = args.store or "all"
    stores = []
    if selector in ("results", "all"):
        stores.append(("results", "result cache", engine.cache))
    if selector in ("traces", "all"):
        stores.append(("traces", "trace store", engine.trace_store))
    data: Dict[str, Any] = {"action": action, "store": selector}
    if action in ("prune", "clear"):
        data["removed"] = {name: getattr(store, action)()
                           for name, _, store in stores}
    for name, _, store in stores:
        data[name] = store.stats()
    lines = []
    if "removed" in data:
        removed = ", ".join(f"{count} {name} entries" for name, count
                            in sorted(data["removed"].items()))
        lines.append(f"{action}: removed {removed}")
    for name, title, _ in stores:
        stats = data[name]
        health = stats["integrity"]
        lines.append(
            f"{title:<12} {stats['entries']:>6} entries  "
            f"{stats['bytes']:>12} bytes  v{stats['version']}  "
            f"[{stats['root']}]")
        lines.append(
            f"{'':<12} policy={stats['policy']}  "
            f"quarantined={stats['quarantined']}  "
            f"verified={health['verified']}  "
            f"repaired={health['repaired']}")
    return data, "\n".join(lines)


def _doctor_command(args, engine: ExperimentEngine) -> Tuple[Any, str, int]:
    """``repro doctor [RUN.jsonl]``: audit both stores and, optionally,
    a run ledger; non-zero exit on unrepaired corruption."""
    ledgers: List[str] = []
    if args.action:
        ledgers.append(args.action)
    elif args.log_jsonl:
        ledgers.append(args.log_jsonl)
    report = run_doctor(engine.cache, engine.trace_store,
                        ledgers=tuple(ledgers), repair=args.repair)
    code = 0 if (report["clean"] or args.repair) else 1
    return report, format_doctor(report), code


def _serve_command(args, engine: ExperimentEngine) -> int:
    """``repro serve``: the multi-tenant HTTP simulation service.

    Blocks until interrupted or drained.  SIGTERM (and
    ``POST /v1/admin/drain``) triggers a graceful drain — stop
    admitting, finish or deadline-cancel in-flight requests, flush the
    store tiers — then exits 0.  The engine (and therefore the tiered
    stores and any ``--log-jsonl`` ledger) is shared by every request;
    see ``docs/serve.md`` for the wire protocol.
    """
    import asyncio
    import signal

    from .serve import ReproServer, SimulationService

    service = SimulationService(engine=engine, workers=max(1, args.workers))
    server = ReproServer(service=service, host=args.host, port=args.port)

    async def _run() -> None:
        await server.start()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError,
                                     ValueError):
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(server.drain()))
        print(f"repro serve listening on http://{server.host}:{server.port} "
              f"(workers={max(1, args.workers)})", file=sys.stderr, flush=True)
        await server.serve_forever()
        await server.stop()
        if service.draining:
            print("[serve: drained cleanly]", file=sys.stderr, flush=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("[serve: interrupted]", file=sys.stderr)
    return 0


def _chaos_serve_command(args, out_dir: Optional[pathlib.Path]
                         ) -> Tuple[Any, str, int]:
    """``repro chaos-serve``: the deterministic chaos harness.

    Serves ``--chaos-command`` twice — clean and under a fault-injected
    backend — byte-compares every response, and exercises deadlines,
    breaker recovery, drain and the warm-restart path.  Exits non-zero
    on any failed check; ``--out`` writes ``CHAOS_report.json``.
    """
    from .serve import FAULT_MODES, format_chaos, run_chaos_serve

    modes = (tuple(part.strip() for part in args.modes.split(",")
                   if part.strip())
             if args.modes else FAULT_MODES)
    params: Dict[str, Any] = {}
    if args.scale is not None:
        params["scale"] = int(args.scale)
    report = run_chaos_serve(
        command=args.chaos_command,
        params=params,
        requests=max(1, args.requests),
        seed=args.seed if args.seed is not None else 0,
        rate=args.rate,
        modes=modes,
    )
    data = report.to_dict()
    if out_dir is not None:
        (out_dir / "CHAOS_report.json").write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data, format_chaos(report), 1 if report.failed else 0


def _resume_command(args, parser: argparse.ArgumentParser) -> int:
    """``repro resume RUN.jsonl``: finish an interrupted run.

    The run log's ``run_meta`` line carries the original argv; the
    command is replayed against the same durable result cache, so
    completed windows are served as hits and only the missing ones
    execute.  The replay appends to the same JSONL, which is how the
    resumed hit/miss counts stay auditable in one artifact.
    """
    if not args.action:
        parser.error("resume requires the run's JSONL log path")
    log_path = pathlib.Path(args.action)
    meta, before, report = read_run_log_checked(log_path)
    if report.bad:
        print(f"warning: ignored {report.torn} torn and {report.corrupt} "
              f"corrupt line(s) in {log_path}; their windows will "
              f"re-execute (run `repro doctor {log_path} --repair` to "
              f"rewrite the ledger)", file=sys.stderr)
    if meta is None:
        print(f"error: {log_path} has no run_meta record "
              f"(not a resumable run log)", file=sys.stderr)
        return 2
    argv = list(meta["argv"])
    # Append (flags win last) so the replay logs into the same ledger
    # and counts the prior run's windows as resumable.
    argv += ["--log-jsonl", str(log_path), "--resume-from", str(log_path)]
    code = main(argv)
    _, after = read_run_log(log_path)
    appended = after[len(before):]
    hits = sum(1 for r in appended if r.get("cache") == "hit")
    executed = sum(1 for r in appended if r.get("cache") == "miss")
    print(f"[resume: {hits} windows already cached, {executed} executed, "
          f"command `{meta['command']}` exit {code}]", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the Branch-on-Random (CGO 2008) evaluation.",
    )
    parser.add_argument("command",
                        choices=list(COMMANDS) + ["all", "cache", "bench",
                                                  "resume", "doctor",
                                                  "serve", "chaos-serve"],
                        help="which figure/table to regenerate, `cache` to "
                             "inspect/maintain the on-disk stores, `bench` "
                             "to run the fastpath-vs-golden timing "
                             "benchmark (writes BENCH_timing.json under "
                             "--out), `resume` to finish an interrupted "
                             "run from its JSONL log, `doctor` to audit "
                             "store/ledger integrity, `serve` to run "
                             "the HTTP simulation service (docs/serve.md), "
                             "or `chaos-serve` to prove the service "
                             "absorbs a fault-injected backend")
    parser.add_argument("action", nargs="?", default=None,
                        help="for `cache`: stats (default), prune stale "
                             "versions, or clear everything; for `resume`: "
                             "the interrupted run's JSONL log path; for "
                             "`doctor`: an optional run ledger to audit "
                             "alongside the stores")
    parser.add_argument("--scale", type=float, default=None,
                        help="per-command scale: fraction of the paper's "
                             "invocation counts for accuracy figures "
                             f"(default {ACCURACY_SCALE_DEFAULT}), outer-"
                             "loop multiplier for figure12 (default "
                             f"{JVM_SCALE_DEFAULT:g}), microbenchmark "
                             "characters for figures 13/14/2 (default "
                             f"{MICRO_CHARS_DEFAULT}), generated windows "
                             "for fuzz (default 25), measured-loop "
                             "iterations for entropy (default 64)")
    parser.add_argument("--sample", type=str, default=None,
                        help="sampling plan for the figure's window "
                             "population: exhaustive, fraction:F, "
                             "budget:N, or adaptive:N (figures "
                             "9/10/12/13/14; estimates gain confidence "
                             "intervals — see docs/sampling.md)")
    parser.add_argument("--seed", type=int, default=None,
                        help="uniform experiment seed: workload seed and "
                             "sampling-plan selection seed (default: "
                             "REPRO_SEED, else each figure's historical "
                             "default)")
    parser.add_argument("--out", type=str, default=None,
                        help="directory to also write each figure's table "
                             "into (<out>/<command>.txt)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="simulation-window worker processes "
                             "(default: REPRO_JOBS, else all cores)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-window timeout in seconds for pool "
                             "execution (default: REPRO_TIMEOUT, else none)")
    parser.add_argument("--retries", type=int, default=None,
                        help="transient-failure retry budget per window "
                             "(default: REPRO_RETRIES, else 3)")
    parser.add_argument("--failure-policy", choices=("raise", "retry",
                                                     "skip"), default=None,
                        help="what to do when a window keeps failing "
                             "(default: REPRO_FAILURE_POLICY, else retry)")
    parser.add_argument("--resume-from", type=str, default=None,
                        help="prior run JSONL whose completed windows are "
                             "expected to be served from the cache "
                             "(`repro resume` sets this automatically)")
    parser.add_argument("--integrity", choices=INTEGRITY_POLICIES,
                        default=None,
                        help="what a corrupt store entry becomes: verify "
                             "(quarantine + fail), repair (quarantine + "
                             "re-execute transparently), trust (skip "
                             "checksums; default: REPRO_INTEGRITY, else "
                             "repair)")
    parser.add_argument("--store", choices=("results", "traces", "all"),
                        default=None,
                        help="for `cache`: which store the action applies "
                             "to (default: all)")
    parser.add_argument("--host", type=str, default="127.0.0.1",
                        help="for `serve`: interface to bind "
                             "(default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8787,
                        help="for `serve`: TCP port; 0 picks a free one "
                             "(default: 8787)")
    parser.add_argument("--workers", type=int, default=1,
                        help="for `serve`: concurrent distinct "
                             "computations (identical concurrent requests "
                             "always coalesce onto one; default: 1)")
    parser.add_argument("--serve-diff", action="store_true",
                        help="for `fuzz`: additionally byte-compare each "
                             "window served by an ephemeral repro serve "
                             "instance against the local façade")
    parser.add_argument("--rate", type=float, default=0.2,
                        help="for `chaos-serve`: deterministic fault-"
                             "injection probability per backend call "
                             "(default: 0.2)")
    parser.add_argument("--requests", type=int, default=6,
                        help="for `chaos-serve`: size of the request sweep "
                             "(default: 6)")
    parser.add_argument("--chaos-command", type=str, default="figure13",
                        help="for `chaos-serve`: the figure command to "
                             "serve under chaos (default: figure13)")
    parser.add_argument("--modes", type=str, default=None,
                        help="for `chaos-serve`: comma-separated fault "
                             "modes (slow,error,hang,torn; default: all)")
    parser.add_argument("--repair", action="store_true",
                        help="for `doctor`: quarantine corrupt store "
                             "entries and rewrite damaged ledgers instead "
                             "of only reporting them")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON document per "
                             "command instead of the text tables")
    parser.add_argument("--log-jsonl", type=str, default=None,
                        help="append one JSONL record per simulation "
                             "window to this file")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="window-result cache directory "
                             "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the window-result cache")
    return parser


def _build_engine(args, out_dir: Optional[pathlib.Path]) -> ExperimentEngine:
    """Configure the process-wide engine from flags and environment.

    Environment resolution lives in :meth:`EngineConfig.from_env`;
    flags override it.  The CLI (unlike the library) defaults to all
    cores, because regenerating figures is embarrassingly parallel.
    """
    overrides: Dict[str, Any] = {}
    if args.jobs is not None:
        overrides["jobs"] = max(1, args.jobs)
    if args.timeout is not None:
        overrides["timeout"] = args.timeout
    if args.retries is not None:
        overrides["retries"] = max(0, args.retries)
    if args.failure_policy is not None:
        overrides["failure_policy"] = args.failure_policy
    if args.resume_from is not None:
        overrides["resume_from"] = args.resume_from
    if args.integrity is not None:
        overrides["integrity"] = args.integrity
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = EngineConfig.from_env(**overrides)
    if config.jobs is None:
        config = config.with_overrides(jobs=os.cpu_count() or 1)
    log_path: Optional[pathlib.Path] = None
    if args.log_jsonl:
        log_path = pathlib.Path(args.log_jsonl)
    elif args.json and out_dir is not None:
        log_path = out_dir / "BENCH_windows.jsonl"
    cache = ResultCache(
        root=pathlib.Path(args.cache_dir) if args.cache_dir else None,
        enabled=not args.no_cache and cache_enabled_by_env(),
        policy=config.integrity,
        backend=config.store_backend,
        breaker=config.breaker,
    )
    engine = ExperimentEngine(config=config, cache=cache,
                              recorder=RunRecorder(log_path))
    set_engine(engine)
    return engine


def main(argv: Optional[List[str]] = None) -> int:
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(raw_argv)
    if args.command == "resume":
        return _resume_command(args, parser)
    if args.action is not None and args.command not in ("cache", "doctor"):
        parser.error(f"'{args.action}' is only valid after the "
                     f"`cache`, `doctor` or `resume` commands")
    if args.command == "cache" and args.action is not None \
            and args.action not in CACHE_ACTIONS:
        parser.error(f"cache action must be one of {CACHE_ACTIONS}, "
                     f"got '{args.action}'")
    if args.command == "all" and args.scale is not None:
        parser.error("--scale is ambiguous for `all` (its unit differs "
                     "per command); run commands individually")
    if args.sample is not None:
        if args.command not in SAMPLED_COMMANDS:
            parser.error(f"--sample is only supported by "
                         f"{'/'.join(SAMPLED_COMMANDS)}")
        from .stats import SamplingPlan

        try:  # fail fast, before any engine/window work
            SamplingPlan.parse(args.sample)
        except ValueError as exc:
            parser.error(f"invalid --sample plan: {exc}")
    if args.seed is not None and args.command not in SEEDED_COMMANDS:
        parser.error(f"--seed is only supported by "
                     f"{'/'.join(SEEDED_COMMANDS)}")
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        engine = _build_engine(args, out_dir)
    except ValueError as exc:  # a malformed REPRO_* value or backend spec
        parser.error(str(exc))

    if args.command == "serve":
        return _serve_command(args, engine)

    if args.command == "chaos-serve":
        data, text, code = _chaos_serve_command(args, out_dir)
        if args.json:
            print(json.dumps(data, indent=2, sort_keys=True))
        else:
            print(text)
        return code

    if args.command == "cache":
        data, text = _cache_command(args, engine)
        if args.json:
            print(json.dumps(data, indent=2, sort_keys=True))
        else:
            print(text)
        return 0

    if args.command == "doctor":
        data, text, code = _doctor_command(args, engine)
        if args.json:
            rendered = json.dumps(data, indent=2, sort_keys=True)
            print(rendered)
            if out_dir is not None:
                (out_dir / "BENCH_doctor.json").write_text(rendered + "\n")
        else:
            print(text)
            if out_dir is not None:
                (out_dir / "doctor.txt").write_text(text + "\n")
        return code

    if args.command == "bench":
        started = time.time()
        data, text, code = _bench_command(args, out_dir)
        if args.json:
            print(json.dumps(data, indent=2, sort_keys=True))
        else:
            print(text)
        print(f"[bench finished in {time.time() - started:.1f}s]\n",
              file=sys.stderr)
        return code

    # The resume ledger: one run_meta line per invocation, so `repro
    # resume <log>` can replay the exact command later.
    if engine.recorder.log_path is not None:
        engine.recorder.write_meta({
            "command": args.command,
            "argv": [a for a in raw_argv
                     if a not in ("--resume-from", args.resume_from,
                                  "--log-jsonl", args.log_jsonl)],
            "log_jsonl": str(engine.recorder.log_path),
            "engine_config": engine.config.to_dict(),
            "ts": time.time(),
        })

    commands = list(COMMANDS) if args.command == "all" else [args.command]

    exit_code = 0
    for name in commands:
        started = time.time()
        windows_before = len(engine.recorder.records)
        data, text = COMMANDS[name](args)
        elapsed = time.time() - started

        if name in ("scorecard", "fuzz") and isinstance(data, dict) \
                and data["failed"]:
            exit_code = 1
        if name == "fuzz" and out_dir is not None:
            # One JSONL record per divergence — the CI artifact.
            (out_dir / "FUZZ_divergences.jsonl").write_text(
                "".join(json.dumps(d, sort_keys=True) + "\n"
                        for d in data["divergences"]))

        if args.json:
            document: Dict[str, Any] = {
                "command": name,
                "elapsed_s": round(elapsed, 3),
                "data": data,
                "engine": dict(
                    engine.summary(),
                    command_windows=(
                        len(engine.recorder.records) - windows_before),
                    jobs=engine.jobs,
                ),
            }
            rendered = json.dumps(document, indent=2, sort_keys=True)
            print(rendered)
            if out_dir is not None:
                (out_dir / f"BENCH_{name}.json").write_text(rendered + "\n")
        else:
            print(text)
            if out_dir is not None:
                (out_dir / f"{name}.txt").write_text(text + "\n")
        print(f"[{name} finished in {elapsed:.1f}s]\n", file=sys.stderr)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - module smoke-tested via main()
    raise SystemExit(main())
