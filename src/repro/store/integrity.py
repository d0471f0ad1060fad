"""Store-level integrity primitives: policies, digests, quarantine.

These used to live in :mod:`repro.engine.integrity`, duplicated in
spirit between the result cache and the trace store; the tiered store
layer (:mod:`repro.store`) now owns them.  :mod:`repro.engine.integrity`
re-exports every name, so engine-level callers and tests are
unaffected.

* **policies** — every store runs under one of
  :data:`INTEGRITY_POLICIES`: ``verify`` (checksum on read, corrupt
  entries are quarantined and raise :class:`IntegrityError`),
  ``repair`` (the default: checksum on read, corrupt entries are
  quarantined and transparently re-recorded / recomputed), ``trust``
  (skip checksum verification — structural parsing still applies);
* **quarantine** — a corrupt entry is never deleted: it is moved to
  ``<store root>/quarantine/`` next to a machine-readable
  ``<name>.reason.json`` describing what failed, so corruption is
  auditable after the fact (``repro doctor`` scans it).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Store-level integrity policies (see module docstring).
INTEGRITY_POLICIES = ("verify", "repair", "trust")

#: Subdirectory of a store root that corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"

#: Suffix of the machine-readable reason file written per quarantined
#: entry.
REASON_SUFFIX = ".reason.json"


class IntegrityError(RuntimeError):
    """Corrupt on-disk state detected under the ``verify`` policy."""


def check_policy(policy: str) -> str:
    if policy not in INTEGRITY_POLICIES:
        raise ValueError(
            f"integrity policy must be one of {INTEGRITY_POLICIES}, "
            f"got {policy!r}")
    return policy


# ----------------------------------------------------------------------
# Payload digests (result-cache entries).


def payload_digest(payload: Any) -> str:
    """Canonical sha256 of a JSON-able payload — the digest embedded
    in every result-cache entry and recomputed on read."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Per-store integrity counters (telemetry).


@dataclass
class IntegrityCounters:
    """What a store's integrity layer did this process."""

    #: Entries that passed checksum verification on read.
    verified: int = 0
    #: Quarantined entries that were transparently re-recorded or
    #: recomputed (the self-heal completing).
    repaired: int = 0
    #: Corrupt entries moved to the quarantine directory.
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# Quarantine: corrupt entries are moved aside, never deleted.


def quarantine_root(store_root: pathlib.Path) -> pathlib.Path:
    return pathlib.Path(store_root) / QUARANTINE_DIR


def quarantine_entry(path: pathlib.Path, store_root: pathlib.Path,
                     reason: str, key: Optional[str] = None,
                     store: str = "unknown") -> Optional[pathlib.Path]:
    """Move a corrupt entry into ``<store_root>/quarantine/`` with a
    machine-readable reason file; returns the quarantined path (or
    ``None`` if the entry vanished underneath us — another process may
    have quarantined it first)."""
    path = pathlib.Path(path)
    qdir = quarantine_root(store_root)
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        os.replace(path, target)
    except OSError:
        return None
    reason_doc = {
        "entry": path.name,
        "original_path": str(path),
        "store": store,
        "key": key,
        "reason": reason,
        "detected_ts": time.time(),
    }
    with contextlib.suppress(OSError):
        (qdir / (path.name + REASON_SUFFIX)).write_text(
            json.dumps(reason_doc, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    return target


def quarantined_entries(store_root: pathlib.Path) -> List[pathlib.Path]:
    """Quarantined entry files (reason files excluded) under a store."""
    qdir = quarantine_root(store_root)
    if not qdir.is_dir():
        return []
    return sorted(p for p in qdir.iterdir()
                  if p.is_file() and not p.name.endswith(REASON_SUFFIX))


def purge_quarantine(store_root: pathlib.Path) -> int:
    """Delete every quarantined entry and reason file; returns the
    number of entry files removed (``repro cache prune`` calls this —
    quarantine is an audit trail, not an archive)."""
    qdir = quarantine_root(store_root)
    if not qdir.is_dir():
        return 0
    removed = 0
    for path in list(qdir.iterdir()):
        is_entry = path.is_file() and not path.name.endswith(REASON_SUFFIX)
        with contextlib.suppress(OSError):
            path.unlink()
            removed += int(is_entry)
    with contextlib.suppress(OSError):
        qdir.rmdir()
    return removed
