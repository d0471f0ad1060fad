"""End-to-end integrity layer: checksums, quarantine, validation.

The engine trusts three kinds of on-disk state — recorded BRTR traces,
cached window payloads, and JSONL run ledgers — plus one runtime
shortcut, the batched fast-path timing kernel.  This module owns the
policies and shared machinery that keep all four honest
(``docs/integrity.md``):

* **policies** — every store runs under one of
  :data:`INTEGRITY_POLICIES`: ``verify`` (checksum on read, corrupt
  entries are quarantined and raise :class:`IntegrityError`),
  ``repair`` (the default: checksum on read, corrupt entries are
  quarantined and transparently re-recorded / recomputed), ``trust``
  (skip checksum verification — structural parsing still applies);
* **quarantine** — a corrupt entry is never deleted: it is moved to
  ``<store root>/quarantine/`` next to a machine-readable
  ``<name>.reason.json`` describing what failed, so corruption is
  auditable after the fact (``repro doctor`` scans it);
* **validation watchdog** — ``REPRO_VALIDATE=n`` /
  :attr:`~repro.engine.config.EngineConfig.validate_every` re-times
  every *n*-th fast-path replay with the golden lock-step model and
  compares the :class:`~repro.timing.pipeline.TimingStats` field by
  field (a :class:`ValidationWatchdog`, passed to every replay,
  counts the replays); :data:`VALIDATE_POLICIES` decides what a
  divergence becomes (``warn`` — keep the fast stats and log,
  ``fallback`` — the default, return the golden stats, ``raise`` —
  abort the run).

The store-level primitives — policies, quarantine, payload digests,
per-store counters — moved to :mod:`repro.store.integrity` with the
tiered-store refactor; they are re-exported here unchanged so
engine-level callers and tests keep importing them from
``repro.engine``.  What remains native to this module is the
engine-side machinery: ledger CRCs, the validation watchdog, and
``repro doctor``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..store.integrity import (  # noqa: F401 - re-exported surface
    INTEGRITY_POLICIES,
    QUARANTINE_DIR,
    REASON_SUFFIX,
    IntegrityCounters,
    IntegrityError,
    check_policy,
    payload_digest,
    purge_quarantine,
    quarantine_entry,
    quarantine_root,
    quarantined_entries,
)

#: What a fast-path validation divergence becomes.
VALIDATE_POLICIES = ("warn", "fallback", "raise")


class ValidationDivergence(IntegrityError):
    """The fast-path kernel diverged from the golden lock-step model
    under validation policy ``raise``."""


# ----------------------------------------------------------------------
# Fast-path validation watchdog.


class ValidationWatchdog:
    """The validation watchdog of one engine run or one pool worker:
    its settings plus the cadence counter.

    It reaches :func:`~repro.timing.runner.replay_window` as an
    argument.  The engine makes one per run; a pool worker keeps one
    for the life of its process, so with ``every=n`` each worker
    validates its own every n-th fast replay.
    """

    def __init__(self, every: Optional[int] = None,
                 policy: str = "fallback") -> None:
        if policy not in VALIDATE_POLICIES:
            raise ValueError(
                f"validate policy must be one of {VALIDATE_POLICIES}, "
                f"got {policy!r}")
        #: Validate every n-th fast-path replay; ``None``/0 disables.
        self.every = every
        #: One of :data:`VALIDATE_POLICIES`.
        self.policy = policy
        #: Fast-path replays seen so far.
        self.replays = 0

    def take_ticket(self) -> bool:
        """Count one fast-path replay; True when it is the every n-th
        and must be cross-checked against the golden model."""
        if not self.every:
            return False
        self.replays += 1
        return self.replays % self.every == 0

    def judge(self, fast: Any, golden: Any
              ) -> Tuple[Any, Dict[str, Any]]:
        """The stats to report for a sampled replay — the fast ones, or
        the golden ones under ``fallback`` on divergence — plus its
        validation telemetry.  Raises :class:`ValidationDivergence`
        on divergence under ``raise``."""
        mismatches = compare_stats(fast, golden)
        if not mismatches:
            return fast, {"validation": "pass"}
        detail = {"validation": "divergence",
                  "validation_policy": self.policy,
                  "validation_mismatches": mismatches}
        if self.policy == "raise":
            raise ValidationDivergence(
                f"fast-path replay diverged from golden model on "
                f"{len(mismatches)} field(s): "
                + ", ".join(m["field"] for m in mismatches))
        if self.policy == "fallback":
            return golden, detail
        return fast, detail  # "warn": keep the fast stats, report it


def compare_stats(fast: Any, golden: Any) -> List[Dict[str, Any]]:
    """Field-by-field comparison of two ``TimingStats``; returns one
    ``{"field", "fast", "golden"}`` entry per diverging counter."""
    from ..timing.pipeline import _STATS_FIELD_NAMES

    return [
        {"field": name, "fast": getattr(fast, name),
         "golden": getattr(golden, name)}
        for name in _STATS_FIELD_NAMES
        if getattr(fast, name) != getattr(golden, name)
    ]


# ----------------------------------------------------------------------
# Ledger (JSONL) line checksums.


def ledger_line_crc(payload: Dict[str, Any]) -> int:
    """CRC32 of a ledger record's canonical serialisation (the value
    of the line's ``crc`` field; computed with ``crc`` absent)."""
    import zlib

    blob = json.dumps({k: v for k, v in payload.items() if k != "crc"},
                      sort_keys=True)
    return zlib.crc32(blob.encode("utf-8"))


def check_ledger_line(obj: Dict[str, Any]) -> str:
    """Classify one parsed ledger record: ``ok`` (crc matches),
    ``legacy`` (no crc field — pre-integrity ledgers stay readable),
    or ``corrupt`` (crc mismatch: the line was bit-rotted in place)."""
    if "crc" not in obj:
        return "legacy"
    return "ok" if obj["crc"] == ledger_line_crc(obj) else "corrupt"


@dataclass
class LedgerReport:
    """What reading a JSONL ledger back found, line by line."""

    path: str
    lines: int = 0
    ok: int = 0
    legacy: int = 0
    #: Unparseable lines — a torn tail from a killed run, usually.
    torn: int = 0
    #: Parseable lines whose crc no longer matches (bit rot).
    corrupt: int = 0

    @property
    def bad(self) -> int:
        return self.torn + self.corrupt

    def as_dict(self) -> Dict[str, Any]:
        return dict(dataclasses.asdict(self), bad=self.bad)


# ----------------------------------------------------------------------
# `repro doctor`: scan everything, report, optionally repair.


def scan_ledger(path, repair: bool = False) -> LedgerReport:
    """Verify a JSONL run ledger line by line.

    With ``repair``, the file is atomically rewritten with only the
    intact lines (dropping the torn tail and any bit-rotted line), so
    a later ``repro resume`` never has to re-tolerate them.
    """
    path = pathlib.Path(path)
    report = LedgerReport(path=str(path))
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return report
    kept: List[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        report.lines += 1
        try:
            obj = json.loads(stripped)
        except ValueError:
            report.torn += 1
            continue
        if not isinstance(obj, dict):
            report.torn += 1
            continue
        status = check_ledger_line(obj)
        if status == "corrupt":
            report.corrupt += 1
            continue
        report.ok += int(status == "ok")
        report.legacy += int(status == "legacy")
        kept.append(stripped)
    if repair and report.bad:
        import tempfile

        handle = tempfile.NamedTemporaryFile(
            mode="w", encoding="utf-8", dir=str(path.parent),
            prefix=".tmp-", suffix=".jsonl", delete=False)
        try:
            with handle:
                handle.write("\n".join(kept) + ("\n" if kept else ""))
            os.replace(handle.name, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(handle.name)
    return report


def run_doctor(cache, trace_store, ledgers: Tuple[str, ...] = (),
               repair: bool = False) -> Dict[str, Any]:
    """Scan both stores and any ledgers; returns the doctor report.

    ``repair`` quarantines corrupt store entries (they re-record /
    recompute on next use) and rewrites damaged ledgers in place.
    ``report["corrupt"]`` counts everything found; ``report["clean"]``
    is True when nothing was wrong to begin with.
    """
    results = cache.scan(repair=repair)
    traces = trace_store.scan(repair=repair)
    ledger_reports = [scan_ledger(path, repair=repair) for path in ledgers]
    corrupt = (results["corrupt"] + traces["corrupt"]
               + sum(r.bad for r in ledger_reports))
    return {
        "results": results,
        "traces": traces,
        "ledgers": [r.as_dict() for r in ledger_reports],
        "corrupt": corrupt,
        "repaired": repair,
        "clean": corrupt == 0,
    }


def format_doctor(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_doctor` report."""
    lines = []
    for title, scan in (("result cache", report["results"]),
                        ("trace store", report["traces"])):
        lines.append(
            f"{title:<12} {scan['scanned']:>6} scanned  "
            f"{scan['ok']:>6} ok  {scan['corrupt']:>4} corrupt  "
            f"{scan['quarantined']:>4} quarantined  [{scan['root']}]")
    for ledger in report["ledgers"]:
        lines.append(
            f"ledger       {ledger['lines']:>6} lines    "
            f"{ledger['ok'] + ledger['legacy']:>6} ok  "
            f"{ledger['bad']:>4} corrupt  [{ledger['path']}]")
    verdict = "clean" if report["clean"] else (
        "repaired" if report["repaired"] else "CORRUPT")
    lines.append(f"doctor: {report['corrupt']} problem(s) found — {verdict}")
    return "\n".join(lines)
