"""Cross-path differential fuzzing over generated adversarial programs.

Every generated window is executed through each path the codebase has
for producing :class:`~repro.timing.pipeline.TimingStats`:

* ``lockstep`` — the fresh-machine lock-step reference
  (:func:`~repro.timing.runner.time_window`);
* ``golden`` — record-once / golden replay (``fast="off"``);
* ``loop`` — the loop kernel (:func:`~repro.timing.fastpath.run_fastpath`),
  called directly;
* ``vector`` — the numpy span-replay kernel, entered past admission's
  cost check so the dense adversarial windows production routes to the
  loop kernel still exercise its solver.  The two fast kernels share
  the cache and branch event passes (:mod:`repro.timing.events`), so
  for the caches and the predictor the independent oracles are golden
  replay and lock-step, which :data:`TIMING_PAIRS` diffs them against;
* ``trap`` — the two-word trap-emulated ``brr`` encoding, compared on
  the encoding-independent *functional* projection (checksum, marker
  counts, branch-on-random resolutions) because its code addresses and
  therefore its timing legitimately differ;
* ``columns`` — the replay columns :func:`~repro.timing.runner.record_window`
  fills in the pass that writes a trace, against a fresh decode of
  that trace's bytes (``columns:recorded-vs-decoded``).

Stats are diffed as canonical JSON; any divergence is shrunk to a
1-minimal program (no single block can be removed and still diverge)
by a delta-debugging pass over the generator's self-contained block
lists before being reported.  ``fault=`` injects a deterministic
post-hoc perturbation into a path's payload — the self-test seam that
proves the harness detects and minimizes a real divergence (see
``tests/test_fuzz_harness.py``).

``serve_diff=`` adds one more independent path: an ephemeral
``repro serve`` instance.  Each fuzzed window is requested over HTTP
and the served JSON body is byte-compared against the document a local
``repro.api`` run produces for identical (coerced) parameters — the
wire layer, validation coercers and façade dispatch all answer to the
local path.  A body divergence is ddmin-shrunk over the window's block
budget before being reported.
"""

from __future__ import annotations

import hashlib
import json
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..timing.config import PAPER_CONFIG, TimingConfig
from ..workloads.adversarial import (
    END_MARKER,
    MEASURE_MARKER,
    AdversarialProgram,
    build_adversarial,
)

#: A deliberately tiny machine (mirroring the fast-path fuzz tests):
#: every structural hazard the timing model knows fires constantly.
STRESS_CONFIG = TimingConfig(
    fetch_width=2, decode_width=2, issue_width=2, commit_width=2,
    rob_entries=8, phys_regs=20, frontend_depth=3, backend_penalty=7,
    gshare_history_bits=6, bimodal_entries=256, chooser_entries=64,
    btb_entries=16, ras_entries=2,
    l1i_size=1024, l1i_assoc=2, l1d_size=1024, l1d_assoc=2,
    l2_size=4096, l2_assoc=2, l2_latency=4, memory_latency=30,
)

#: Default timing configurations each window replays under.
DEFAULT_CONFIGS: Tuple[Tuple[str, TimingConfig], ...] = (
    ("paper", PAPER_CONFIG),
    ("stress", STRESS_CONFIG),
)

#: ``fault(path, source, payload) -> payload`` — the injection seam.
FaultHook = Callable[[str, str, Dict[str, Any]], Dict[str, Any]]

#: ``serve_fault(window_seed, blocks, body) -> body`` — the serve-diff
#: injection seam: perturbs the *local* reference body so tests can
#: prove the serve-vs-local comparison detects and shrinks a real
#: divergence.
ServeFaultHook = Callable[[int, int, bytes], bytes]

_BEGIN = (MEASURE_MARKER, 1)
_END = (END_MARKER, 1)


@dataclass
class Divergence:
    """One cross-path mismatch, with its shrunk reproducer."""

    window_seed: int
    scheme: str
    #: e.g. ``"paper:loop-vs-golden"`` or ``"functional:trap-vs-native"``.
    comparison: str
    fields: List[str]
    #: field -> [value_a, value_b].
    details: Dict[str, List[Any]]
    blocks: int
    shrunk_blocks: Optional[int] = None
    shrunk_source: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window_seed": self.window_seed,
            "scheme": self.scheme,
            "comparison": self.comparison,
            "fields": list(self.fields),
            "details": self.details,
            "blocks": self.blocks,
            "shrunk_blocks": self.shrunk_blocks,
            "shrunk_source": self.shrunk_source,
        }


@dataclass
class FuzzReport:
    """The differential harness's verdict over one batch of windows."""

    windows: int
    scheme: str
    configs: List[str]
    comparisons: int = 0
    #: Windows byte-compared against an ephemeral ``repro serve``
    #: instance (0 when ``serve_diff`` was off).
    serve_checked: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.divergences)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "windows": self.windows,
            "scheme": self.scheme,
            "configs": list(self.configs),
            "comparisons": self.comparisons,
            "serve_checked": self.serve_checked,
            "divergences": [d.to_dict() for d in self.divergences],
            "failed": self.failed,
        }


def _canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _diff(a: Dict[str, Any], b: Dict[str, Any]
          ) -> Tuple[List[str], Dict[str, List[Any]]]:
    fields = sorted(set(a) | set(b))
    mismatched = [name for name in fields if a.get(name) != b.get(name)]
    return mismatched, {name: [a.get(name), b.get(name)]
                        for name in mismatched}


def _timing_payloads(adversarial: AdversarialProgram,
                     config: TimingConfig,
                     fault: Optional[FaultHook]) -> Dict[str, Dict[str, Any]]:
    """Canonical TimingStats dicts for every timing path."""
    from ..timing.fastpath import run_fastpath
    from ..timing.runner import (
        _replay_solver,
        _resolve_window,
        record_window,
        replay_window,
        time_window,
    )

    program = adversarial.program()
    source = adversarial.source()
    trace = record_window(program, end=_END,
                          brr_unit=adversarial.brr_unit(),
                          setup=adversarial.setup)
    payloads: Dict[str, Dict[str, Any]] = {}
    lockstep = time_window(program, begin=_BEGIN, end=_END, config=config,
                           brr_unit=adversarial.brr_unit(),
                           setup=adversarial.setup)
    payloads["lockstep"] = lockstep.stats.to_dict()
    result = replay_window(trace, begin=_BEGIN, end=_END, config=config,
                           program=program, fast="off")
    payloads["golden"] = result.stats.to_dict()
    payloads["loop"] = run_fastpath(
        trace, *_resolve_window(trace, _BEGIN, _END, None), config=config,
        program=program).to_dict()
    result = _replay_solver(trace, begin=_BEGIN, end=_END, config=config,
                            program=program)
    payloads["vector"] = result.stats.to_dict()
    if fault is not None:
        payloads = {path: fault(path, source, payload)
                    for path, payload in payloads.items()}
    return payloads


def _functional_payloads(adversarial: AdversarialProgram,
                         fault: Optional[FaultHook]
                         ) -> Dict[str, Dict[str, Any]]:
    source = adversarial.source()
    payloads = {
        "native": adversarial.run_functional("native").to_dict(),
        "trap": adversarial.run_functional("trap").to_dict(),
    }
    if fault is not None:
        payloads = {path: fault(f"functional:{path}", source, payload)
                    for path, payload in payloads.items()}
    return payloads


def _columns_payload(columns) -> Dict[str, Any]:
    """Every column field, the per-record buffers as digests so a diff
    stays small."""
    payload: Dict[str, Any] = {
        name: _body_digest(bytes(getattr(columns, name)))
        for name in columns.ARRAYS
    }
    payload["instrs"] = _body_digest(repr(columns.instrs).encode())
    payload["n_records"] = columns.n_records
    payload["has_trapped"] = columns.has_trapped
    return payload


def _columns_payloads(adversarial: AdversarialProgram,
                      fault: Optional[FaultHook]
                      ) -> Dict[str, Dict[str, Any]]:
    """The columns the recorder filled beside the bytes it wrote, and a
    fresh decode of those bytes."""
    from ..sim.trace_io import RecordedTrace
    from ..timing.runner import record_window

    trace = record_window(adversarial.program(), end=_END,
                          brr_unit=adversarial.brr_unit(),
                          setup=adversarial.setup)
    payloads = {
        "recorded": _columns_payload(trace.columns()),
        "decoded": _columns_payload(RecordedTrace(trace._data).columns()),
    }
    if fault is not None:
        payloads = {path: fault(f"columns:{path}", adversarial.source(),
                                payload)
                    for path, payload in payloads.items()}
    return payloads


#: (path, reference) pairs diffed per timing configuration.
TIMING_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("golden", "lockstep"),
    ("loop", "golden"),
    ("vector", "golden"),
)


def _window_divergences(adversarial: AdversarialProgram,
                        configs: Sequence[Tuple[str, TimingConfig]],
                        fault: Optional[FaultHook],
                        ) -> Tuple[List[Tuple[str, List[str],
                                              Dict[str, List[Any]]]], int]:
    """Every divergent comparison for one program, plus the number of
    comparisons made.  Each entry is (comparison, fields, details)."""
    found: List[Tuple[str, List[str], Dict[str, List[Any]]]] = []
    compared = 0
    for name, config in configs:
        payloads = _timing_payloads(adversarial, config, fault)
        for path, reference in TIMING_PAIRS:
            compared += 1
            if _canonical(payloads[path]) != _canonical(payloads[reference]):
                fields, details = _diff(payloads[path], payloads[reference])
                found.append((f"{name}:{path}-vs-{reference}", fields,
                              details))
    functional = _functional_payloads(adversarial, fault)
    compared += 1
    if _canonical(functional["trap"]) != _canonical(functional["native"]):
        fields, details = _diff(functional["trap"], functional["native"])
        found.append(("functional:trap-vs-native", fields, details))
    columns = _columns_payloads(adversarial, fault)
    compared += 1
    if _canonical(columns["recorded"]) != _canonical(columns["decoded"]):
        fields, details = _diff(columns["recorded"], columns["decoded"])
        found.append(("columns:recorded-vs-decoded", fields, details))
    return found, compared


def _minimize(blocks: List[List[str]],
              still_fails: Callable[[List[List[str]]], bool]
              ) -> List[List[str]]:
    """Delta-debugging block removal: returns a 1-minimal block list
    (removing any single remaining block makes the failure vanish)."""
    chunk = max(1, len(blocks) // 2)
    while True:
        position, removed = 0, False
        while position < len(blocks):
            candidate = blocks[:position] + blocks[position + chunk:]
            if len(candidate) < len(blocks) and still_fails(candidate):
                blocks, removed = candidate, True
            else:
                position += chunk
        if chunk > 1:
            chunk = max(1, chunk // 2)
        elif not removed:
            return blocks


def shrink_divergence(adversarial: AdversarialProgram,
                      comparison: str,
                      configs: Sequence[Tuple[str, TimingConfig]],
                      fault: Optional[FaultHook] = None,
                      max_checks: int = 256) -> AdversarialProgram:
    """Shrink a diverging program to a 1-minimal reproducer.

    ``comparison`` names the failure being preserved; candidate
    programs that raise (instead of diverging) do not count as
    reproducing it.
    """
    budget = {"left": max_checks}

    def reproduces(candidate: AdversarialProgram) -> bool:
        if budget["left"] <= 0:
            return False
        budget["left"] -= 1
        try:
            found, _ = _window_divergences(candidate, configs, fault)
        except Exception:
            return False
        return any(name == comparison for name, _, _ in found)

    body = _minimize(
        adversarial.body_blocks,
        lambda blocks: reproduces(adversarial.replace(body_blocks=blocks)))
    shrunk = adversarial.replace(body_blocks=body)
    warm = _minimize(
        shrunk.warm_blocks,
        lambda blocks: reproduces(shrunk.replace(warm_blocks=blocks)))
    return shrunk.replace(warm_blocks=warm)


# ----------------------------------------------------------------------
# The serve-vs-local path: the wire layer answers to the façade.

def _fuzz_wire_params(window_seed: int, scheme: str,
                      blocks: int) -> Dict[str, str]:
    """One window's request parameters, as the strings a query string
    would carry — both paths coerce them through the same
    ``validate_request``, so shape differences cannot hide."""
    return {"windows": "1", "seed": str(window_seed), "scheme": scheme,
            "blocks": str(blocks), "shrink": "false"}


def _local_fuzz_body(window_seed: int, scheme: str, blocks: int,
                     serve_fault: Optional[ServeFaultHook]) -> bytes:
    """The byte-exact body a correct server must answer with: the
    façade result wrapped in the serve document encoding."""
    from .. import api
    from ..serve.service import validate_request

    resolved = validate_request(
        "fuzz", _fuzz_wire_params(window_seed, scheme, blocks))
    result = api.run_fuzz(**resolved)
    params = {name: (list(value) if isinstance(value, tuple) else value)
              for name, value in resolved.items()}
    document = {"command": "fuzz", "params": params,
                "data": result.data, "text": result.text}
    body = json.dumps(document, sort_keys=True).encode("utf-8")
    if serve_fault is not None:
        body = serve_fault(window_seed, blocks, body)
    return body


def _served_fuzz_body(port: int, window_seed: int, scheme: str,
                      blocks: int) -> bytes:
    query = urllib.parse.urlencode(
        _fuzz_wire_params(window_seed, scheme, blocks))
    url = f"http://127.0.0.1:{port}/v1/figure/fuzz?{query}"
    with urllib.request.urlopen(url, timeout=300) as response:
        return response.read()


def _body_digest(body: bytes) -> str:
    return f"sha256:{hashlib.sha256(body).hexdigest()[:16]}/{len(body)}B"


def _serve_window_diff(port: int, window_seed: int, scheme: str,
                       blocks: int,
                       serve_fault: Optional[ServeFaultHook]
                       ) -> Optional[Dict[str, List[Any]]]:
    """``None`` when served and local bodies agree byte-for-byte."""
    served = _served_fuzz_body(port, window_seed, scheme, blocks)
    local = _local_fuzz_body(window_seed, scheme, blocks, serve_fault)
    if served == local:
        return None
    return {"body": [_body_digest(served), _body_digest(local)]}


def _serve_stage(report: FuzzReport, *, windows: int, seed: int,
                 scheme: str, blocks: int, shrink: bool,
                 serve_fault: Optional[ServeFaultHook]) -> None:
    """Diff every fuzzed window's served body against the local façade.

    Divergences fold into ``report.divergences`` under the
    ``serve:served-vs-local`` comparison; a diverging window is
    ddmin-shrunk over its block budget (the smallest ``blocks`` that
    still diverges)."""
    from ..serve.http import ServerThread

    with ServerThread() as server:
        port = server.port
        for index in range(windows):
            window_seed = seed + index
            details = _serve_window_diff(port, window_seed, scheme,
                                         blocks, serve_fault)
            report.serve_checked += 1
            report.comparisons += 1
            if details is None:
                continue
            divergence = Divergence(
                window_seed=window_seed, scheme=scheme,
                comparison="serve:served-vs-local",
                fields=["body"], details=details, blocks=blocks)
            if shrink:
                def still_fails(candidate: List[Any]) -> bool:
                    if not candidate:
                        return False
                    return _serve_window_diff(
                        port, window_seed, scheme, len(candidate),
                        serve_fault) is not None

                minimal = _minimize(list(range(blocks)), still_fails)
                divergence.shrunk_blocks = len(minimal)
            report.divergences.append(divergence)


def run_differential_fuzz(
    *,
    windows: int = 25,
    seed: int = 0,
    scheme: str = "mixed",
    blocks: int = 24,
    configs: Optional[Sequence[Tuple[str, TimingConfig]]] = None,
    shrink: bool = True,
    fault: Optional[FaultHook] = None,
    serve_diff: bool = False,
    serve_fault: Optional[ServeFaultHook] = None,
) -> FuzzReport:
    """Run ``windows`` generated programs through every path and diff.

    Window ``i`` uses seed ``seed + i`` and rotates the structural
    stressors (call depth, history alternators, loop shape) so one
    batch covers RAS pressure, history dilution and loop replay.
    Deterministic: same arguments, same report.

    ``serve_diff`` additionally byte-compares each window served by an
    ephemeral ``repro serve`` instance against the local façade (see
    :func:`_serve_stage`).
    """
    if configs is None:
        configs = DEFAULT_CONFIGS
    report = FuzzReport(windows=windows, scheme=scheme,
                        configs=[name for name, _ in configs])
    for index in range(windows):
        adversarial = build_adversarial(
            scheme=scheme,
            seed=seed + index,
            blocks=blocks,
            call_depth=index % 3,
            history_stress=index % 2,
            loop_shape=(2,) if index % 2 else (1,),
        )
        found, compared = _window_divergences(adversarial, configs, fault)
        report.comparisons += compared
        for position, (comparison, fields, details) in enumerate(found):
            divergence = Divergence(
                window_seed=seed + index,
                scheme=scheme,
                comparison=comparison,
                fields=fields,
                details=details,
                blocks=(len(adversarial.warm_blocks)
                        + len(adversarial.body_blocks)),
            )
            if shrink and position == 0:
                shrunk = shrink_divergence(adversarial, comparison,
                                           configs, fault)
                divergence.shrunk_blocks = (len(shrunk.warm_blocks)
                                            + len(shrunk.body_blocks))
                divergence.shrunk_source = shrunk.source()
            report.divergences.append(divergence)
    if serve_diff:
        _serve_stage(report, windows=windows, seed=seed, scheme=scheme,
                     blocks=blocks, shrink=shrink, serve_fault=serve_fault)
    return report


def format_fuzz(report: FuzzReport) -> str:
    """The human-readable verdict."""
    served = (f", {report.serve_checked} served-vs-local"
              if report.serve_checked else "")
    lines = [
        f"differential fuzz: {report.windows} windows "
        f"({report.scheme} scheme), configs "
        f"{'/'.join(report.configs)}, {report.comparisons} comparisons"
        f"{served}",
    ]
    if not report.divergences:
        lines.append("all execution paths agree: 0 divergences")
        return "\n".join(lines)
    lines.append(f"FAIL: {len(report.divergences)} divergence(s)")
    for divergence in report.divergences:
        shrunk = ("" if divergence.shrunk_blocks is None else
                  f" (shrunk {divergence.blocks} -> "
                  f"{divergence.shrunk_blocks} blocks)")
        lines.append(
            f"  seed {divergence.window_seed} {divergence.comparison}: "
            f"{', '.join(divergence.fields)}{shrunk}")
    return "\n".join(lines)
