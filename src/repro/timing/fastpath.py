"""The loop kernel: the scalar residue of the fast path's event passes.

:class:`~repro.timing.pipeline.TimingSimulator` is the golden
reference: one ``step()`` call per retired instruction, dispatching
through dataclass properties, small helper objects and the
``_Bandwidth`` maps.  That shape is ideal for auditing against the
paper's Section 5.1 prose, but it is where replay time goes.  The fast
path splits the same model in two.  The caches and the tournament
predictor, BTB and RAS are timing-independent, so
:mod:`repro.timing.events` simulates them once per window, in two
memoised event passes.  The timing recurrence then runs over the
passes' per-record products with one of two kernels:

* :func:`run_fastpath` here (the ``loop`` kernel): one Python
  iteration per record that keeps only the recurrence — fetch slots,
  decode with the ROB / physical-register queues and shared-LFSR
  packet splits, issue, commit and redirect steering.  The decode and
  commit ``_Bandwidth`` maps collapse to one-deep ring allocators
  (their requests are frontier-monotonic); the issue port, whose
  requests can fall behind the frontier, keeps the golden pruned-map
  allocator, inlined, because matching its prune semantics exactly is
  what keeps the stats byte-identical;
* the vector kernel (:mod:`.fastpath_vec`), which solves the same
  recurrence with whole-window numpy passes and hands the windows it
  does not admit or cannot solve to :func:`run_fastpath`.

Both build their stats with :func:`_assemble_stats`.  The contract is
*bit-exact equivalence* with the golden model
(``tests/test_fastpath_golden.py``, ``tests/test_fastpath_fuzz.py``).
Trap-emulated records raise :class:`FastPathUnsupported` and the
caller falls back to the golden loop.

``EngineConfig(fast="off")`` (``REPRO_FAST=off``) opts out: the
engine passes its kernel mode to every replay as an argument; see
``docs/performance.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

import numpy as _np

from ..sim.trace_io import RecordedTrace
from .config import TimingConfig
from .events import (
    _K_BRR, _K_BRRA, _K_LOAD, _K_STORE, _branch_pass, _cache_pass,
    _np_tables, _window_kc,
)
from .pipeline import TimingStats, _Bandwidth


class FastPathUnsupported(Exception):
    """The fast path cannot reproduce this replay bit-exactly; the
    caller must fall back to the lock-step golden loop."""


# ----------------------------------------------------------------------
# Kernel selection (``EngineConfig.fast``):
#
#   ``vector`` — the default: admission (:mod:`.fastpath_vec`) routes
#       each window to the numpy solver or to :func:`run_fastpath`;
#   ``off``    — golden per-record model only.

FAST_MODES = ("vector", "off")


def normalize_fast_mode(value: Optional[str]) -> Optional[str]:
    """``value`` itself when it is a mode name or ``None``; raises
    ``ValueError`` on anything else (booleans included)."""
    if value is None or value in FAST_MODES:
        return value
    raise ValueError(
        f"bad fast-path mode {value!r} (expected one of {FAST_MODES})")


# ----------------------------------------------------------------------
# Stats.

#: The stats fields the timing recurrence produces (the event passes'
#: cumulative counters give every other field).
_TIMED_FIELDS = ("cycles", "brr_packet_splits", "rob_stall_cycles")


def _assemble_stats(counters: Dict, begin: int, end: int,
                    timed_begin: Tuple[int, int, int],
                    timed_end: Tuple[int, int, int]) -> TimingStats:
    """The golden snapshot-and-subtract schedule over a replayed slice.

    ``counters`` maps stats fields to cumulative per-record arrays of
    the slice; ``timed_begin``/``timed_end`` hold the
    :data:`_TIMED_FIELDS` after the slice records ``begin`` and
    ``end``.  A ``begin`` before the slice (``i_begin <= i_skip``)
    subtracts the golden model's all-zero initial snapshot.
    """
    fields = dict(zip(_TIMED_FIELDS, timed_end))
    fields["instructions"] = end + 1
    for name, cumulative in counters.items():
        fields[name] = int(cumulative[end])
    if begin >= 0:
        fields["instructions"] -= begin + 1
        for name, value in zip(_TIMED_FIELDS, timed_begin):
            fields[name] -= value
        for name, cumulative in counters.items():
            fields[name] -= int(cumulative[begin])
    return TimingStats(**fields)


# ----------------------------------------------------------------------
# The loop kernel.

def run_fastpath(
    trace: RecordedTrace,
    i_skip: int,
    i_begin: int,
    i_end: int,
    config: Optional[TimingConfig] = None,
    program=None,
    prewarm_code: bool = True,
    kc=None,
) -> TimingStats:
    """Replay records ``i_skip+1 .. i_end`` of ``trace`` and return the
    measured-window stats (records after ``i_begin`` — the same
    snapshot-and-subtract schedule as the golden
    :func:`~repro.timing.runner.replay_window` loop).

    ``kc`` is the slice's per-record branch class when the caller
    (vector admission) already gathered it.  The event passes come
    from the per-trace memo.  Raises :class:`FastPathUnsupported` for
    trap-emulated traces.
    """
    cfg = config or TimingConfig()
    cols = trace.columns()
    if cols.has_trapped:
        # Golden path raises on trap-emulated records; let it.
        raise FastPathUnsupported("trace contains trap-emulated records")
    if prewarm_code and program is None:
        raise ValueError("prewarm_code requires the program image")
    lo = i_skip + 1
    hi = i_end + 1
    if hi <= lo:
        return TimingStats()  # never steps: the golden model reports 0
    if kc is None:
        kc = _window_kc(cols, lo, hi)
    ifill, dlat, cache_counters = _cache_pass(cols, lo, hi, kc, cfg,
                                              program, prewarm_code)
    mis, ptk, branch_counters = _branch_pass(cols, lo, hi, kc, cfg)

    # ----- per-record columns -----------------------------------------
    _, src1w, src2w, destw, latw, _ = _np_tables(cols)
    wid_np = _np.frombuffer(cols.word_id, dtype=_np.int64)[lo:hi]
    lat = _np.where(kc == _K_LOAD, dlat,
                    _np.where(kc == _K_STORE, 1, latw[wid_np]))
    # How each record steers fetch: its misprediction class (1 front,
    # 2 back), else 3 for a predicted-taken fetch break, else 0.
    steer = _np.where(mis > 0, mis, ptk * 3)
    rows = zip(kc.tolist(), ifill.tolist(), steer.tolist(),
               destw[wid_np].tolist(), src1w[wid_np].tolist(),
               src2w[wid_np].tolist(), lat.tolist())

    # ----- config locals ----------------------------------------------
    fetch_width = cfg.fetch_width
    decode_width = cfg.decode_width
    issue_width = cfg.issue_width
    commit_width = cfg.commit_width
    rob_entries = cfg.rob_entries
    preg_budget = max(1, cfg.phys_regs - 16)
    frontend_depth = cfg.frontend_depth
    backend_penalty = cfg.backend_penalty
    brr_at_decode = cfg.brr_commits_at_decode
    brr_shared = cfg.brr_shared_lfsr
    k_brr, k_brra = _K_BRR, _K_BRRA
    prune_threshold = _Bandwidth.PRUNE_THRESHOLD
    prune_window = _Bandwidth.PRUNE_WINDOW

    # ----- pipeline state ---------------------------------------------
    fetch_cycle = 0
    fetch_slots = fetch_width
    # Decode/commit slot allocators: one-deep rings (frontier cycle +
    # slots used there); requests are provably >= the frontier.
    dcyc = -1
    dused = decode_width
    ccyc = -1
    cused = commit_width
    last_decode = 0
    last_commit = 0
    # Issue keeps the golden pruned-map allocator (see module docs).
    issue_counts = {}
    final_commit = 0
    reg_ready = [0] * 16
    # The ROB and rename-register queues hold release (commit) cycles,
    # pre-filled with zeros: a never-used entry frees at cycle 0, which
    # never delays decode, so no occupancy check is needed.
    rob = deque([0] * rob_entries)
    pregs = deque([0] * preg_budget)
    rob_append, rob_popleft = rob.append, rob.popleft
    pregs_append, pregs_popleft = pregs.append, pregs.popleft
    next_brr_slot = 0
    brr_packet_splits = rob_stall_cycles = 0

    snap = i_begin - lo
    timed_begin = (0, 0, 0)
    for e, (k, fill, steer, dst, s1, s2, latency) in enumerate(rows):
        # ---------------- fetch ----------------
        if fill:
            fetch_cycle += fill
            fetch_slots = fetch_width
        fetch = fetch_cycle
        fetch_slots -= 1
        if fetch_slots == 0:
            fetch_cycle = fetch + 1
            fetch_slots = fetch_width

        # ---------------- decode / rename ----------------
        ready = fetch + frontend_depth
        if ready < last_decode:
            ready = last_decode
        if brr_shared and k == k_brr:
            if ready < next_brr_slot:
                brr_packet_splits += 1
                ready = next_brr_slot
        commits_at_decode = brr_at_decode and (k == k_brr or k == k_brra)
        if not commits_at_decode:
            free_at = rob_popleft()
            if free_at > ready:
                rob_stall_cycles += free_at - ready
                ready = free_at
            if dst >= 0:
                free_at = pregs_popleft()
                if free_at > ready:
                    ready = free_at
        if ready > dcyc:
            dcyc = ready
            dused = 1
        elif dused < decode_width:
            dused += 1
        else:
            dcyc += 1
            dused = 1
        decode = dcyc
        last_decode = decode
        if brr_shared and k == k_brr:
            next_brr_slot = decode + 1

        # ---------------- execute & commit ----------------
        if commits_at_decode:
            complete = decode
            commit = decode
        else:
            ready_ex = decode + 1
            if s1 >= 0:
                t = reg_ready[s1]
                if t > ready_ex:
                    ready_ex = t
                if s2 >= 0:
                    t = reg_ready[s2]
                    if t > ready_ex:
                        ready_ex = t
            counts = issue_counts
            cycle = ready_ex
            count = counts.get(cycle, 0)
            while count >= issue_width:
                cycle += 1
                count = counts.get(cycle, 0)
            counts[cycle] = count + 1
            if len(counts) > prune_threshold:
                cutoff = cycle - prune_window
                for key in [c for c in counts if c < cutoff]:
                    del counts[key]
            complete = cycle + latency
            if dst >= 0:
                reg_ready[dst] = complete
            rc = complete + 1
            if rc < last_commit:
                rc = last_commit
            if rc > ccyc:
                ccyc = rc
                cused = 1
            elif cused < commit_width:
                cused += 1
            else:
                ccyc += 1
                cused = 1
            commit = ccyc
            last_commit = commit
            rob_append(commit)
            if dst >= 0:
                pregs_append(commit)
        if commit > final_commit:
            final_commit = commit

        # ---------------- steer fetch ----------------
        if steer:
            if steer == 1:
                resume = decode + 1
            elif steer == 2:
                resume = complete + 1
                minimum = fetch + backend_penalty
                if resume < minimum:
                    resume = minimum
            else:
                resume = fetch + 1
            if resume > fetch_cycle:
                fetch_cycle = resume
            fetch_slots = fetch_width

        if e == snap:
            timed_begin = (final_commit + 1, brr_packet_splits,
                           rob_stall_cycles)

    return _assemble_stats(
        {**cache_counters, **branch_counters}, snap, hi - lo - 1,
        timed_begin,
        (final_commit + 1, brr_packet_splits, rob_stall_cycles))
