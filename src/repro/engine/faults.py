"""Deterministic fault injection: the engine's crash-test dummy.

The fault-tolerance machinery in :mod:`repro.engine.core` (retry with
backoff, pool rebuild, skip placeholders) is only trustworthy if it is
exercised, so the engine ships an injection seam that tests and the CI
smoke job drive:

* ``REPRO_FAULT_RATE=p`` makes a fraction *p* of window attempts fail.
  The decision is a pure function of ``(window key, attempt)`` — a
  sha256 hash mapped to [0, 1) and compared against *p* — so a given
  run configuration always faults the *same* windows on the *same*
  attempts, in serial and pool mode alike.  A retried attempt hashes
  differently, which is what lets ``failure_policy="retry"`` converge
  to byte-identical figure tables.
* ``REPRO_FAULT_MODE`` picks the failure shape:

  - ``exc`` (default) — raise :class:`InjectedWorkerFault` inside the
    attempt (a clean in-worker exception);
  - ``kill`` — ``os._exit(13)`` the pool worker, producing the
    ``BrokenProcessPool`` path (only honoured inside pool workers;
    serial attempts degrade to ``exc``);
  - ``hang`` — sleep ``REPRO_FAULT_HANG_S`` seconds (default 3600)
    then raise, exercising the ``REPRO_TIMEOUT`` path.

Injection happens at the very start of an attempt, before any
simulation or trace recording, so a faulted attempt has no side
effects beyond a possibly leftover temp file.
"""

from __future__ import annotations

import hashlib
import os
import time

FAULT_MODES = ("exc", "kill", "hang")


class InjectedWorkerFault(RuntimeError):
    """A deliberately injected, transient window failure."""


def fault_mode_from_env() -> str:
    mode = os.environ.get("REPRO_FAULT_MODE") or "exc"
    if mode not in FAULT_MODES:
        raise ValueError(
            f"REPRO_FAULT_MODE={mode!r}: expected one of {FAULT_MODES}")
    return mode


def fault_hang_seconds() -> float:
    try:
        return float(os.environ.get("REPRO_FAULT_HANG_S", "3600"))
    except ValueError:
        return 3600.0


def should_inject(key: str, attempt: int, rate: float) -> bool:
    """Deterministic per-(window, attempt) fault decision."""
    if rate <= 0.0:
        return False
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return fraction < rate


def maybe_inject(key: str, attempt: int, rate: float,
                 in_worker: bool = False) -> None:
    """Fault this attempt iff the deterministic decision says so, in
    the shape ``REPRO_FAULT_MODE`` names (read only when it fires)."""
    if not should_inject(key, attempt, rate):
        return
    mode = fault_mode_from_env()
    if mode == "kill" and in_worker:
        os._exit(13)
    if mode == "hang":
        time.sleep(fault_hang_seconds())
    raise InjectedWorkerFault(
        f"injected fault: window {key[:12]} attempt {attempt}")


# ----------------------------------------------------------------------
# On-disk corruption injection: the integrity layer's crash-test dummy.
# Used by tests/test_integrity.py and the CI corruption-smoke job to
# damage stores *deterministically* — the same seed always flips the
# same bit of the same file — so detection/quarantine/self-heal
# behaviour is reproducible.

CORRUPTION_KINDS = ("flip", "truncate")


def _corruption_offset(path, size: int, seed: int) -> int:
    """Deterministic byte offset within ``path`` for a given seed."""
    digest = hashlib.sha256(f"{os.path.basename(path)}:{seed}"
                            .encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % size


def corrupt_file(path, seed: int = 0, kind: str = "flip") -> int:
    """Deterministically damage one file in place.

    ``flip`` XORs a single bit of a seed-chosen byte; ``truncate``
    drops the tail from a seed-chosen offset (at least one byte).
    Returns the affected offset.  Raises ``ValueError`` on an empty
    file or unknown kind — corrupting nothing is a test bug worth
    failing loudly on.
    """
    if kind not in CORRUPTION_KINDS:
        raise ValueError(
            f"corruption kind must be one of {CORRUPTION_KINDS}, "
            f"got {kind!r}")
    size = os.path.getsize(path)
    if size <= 0:
        raise ValueError(f"cannot corrupt empty file: {path}")
    offset = _corruption_offset(path, size, seed)
    if kind == "truncate":
        offset = min(offset, size - 1)  # drop at least one byte
        with open(path, "r+b") as handle:
            handle.truncate(offset)
        return offset
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ (1 << (seed % 8))]))
    return offset
