"""Batched fast-path timing kernel over columnar traces.

:class:`~repro.timing.pipeline.TimingSimulator` is the golden
reference: one ``step()`` call per retired instruction, dispatching
through dataclass properties, small helper objects and the
``_Bandwidth`` maps.  That shape is ideal for auditing against the
paper's Section 5.1 prose, but after PR 2 moved sweeps to
record-once/replay-many it is also where nearly all scorecard wall
time goes.  This module is the optimised replay path (rr-style: the
*replayed* execution is the common case, so it gets the fast
implementation):

* the trace is decoded once into struct-of-arrays columns
  (:meth:`~repro.sim.trace_io.RecordedTrace.columns`) — no per-record
  ``TraceRecord`` objects;
* branch-class dispatch, source/dest registers and latencies are
  precomputed per static instruction word, so the hot loop indexes
  flat tables instead of calling ``Instruction`` properties;
* the tournament predictor's gshare/bimodal/chooser tables are flat
  ``bytearray``\\ s of 2-bit counters, the BTB is a pair of lists, and
  the cache hierarchy's LRU sets are plain insertion-ordered dicts;
* the decode and commit ``_Bandwidth`` maps collapse to ring-buffer
  slot allocators: their requests are frontier-monotonic (always at
  or past the last allocated cycle), so a ``(cycle, slots_used)``
  pair — a one-deep ring — reproduces the map bit for bit.  The
  *issue* port is the one stage whose requests can fall behind the
  frontier (a dependence-free instruction may issue long before a
  load-miss chain completes), so it keeps the golden pruned-map
  allocator, inlined with locals-bound state: matching the golden
  path's prune semantics exactly is what keeps the stats
  byte-identical;
* all simulator state lives in local variables for the duration of
  the loop.

The contract is *bit-exact equivalence*: every
:class:`~repro.timing.pipeline.TimingStats` produced here must equal
the lock-step golden path byte for byte
(``tests/test_fastpath_golden.py`` pins all 15 Figure-12 cells and 4
Figure-13 combos; ``tests/test_fastpath_fuzz.py`` differentially
fuzzes random programs over every branch class).  Anything the kernel
cannot reproduce exactly (currently: trap-emulated records, or an
issue-port request falling behind the retained bandwidth window)
raises :class:`FastPathUnsupported` and the caller falls back to the
golden loop.

``EngineConfig(fast="off")`` (``REPRO_FAST=off``) opts out globally:
the engine installs its kernel mode in-process and ships it to its
pool workers; see ``docs/performance.md``.
"""

from __future__ import annotations

import contextlib
from collections import deque
from typing import List, Optional, Tuple

from ..isa.instructions import Instruction, Op
from ..sim.trace_io import RecordedTrace
from .config import TimingConfig
from .pipeline import TimingStats, _Bandwidth


class FastPathUnsupported(Exception):
    """The fast path cannot reproduce this replay bit-exactly; the
    caller must fall back to the lock-step golden loop."""


# ----------------------------------------------------------------------
# Kernel selection (``EngineConfig.fast``):
#
#   ``vector`` — numpy span-replay kernel (:mod:`.fastpath_vec`), the
#       default; falls back to ``loop`` for anything it cannot
#       reproduce bit-exactly (and that in turn to the golden model);
#   ``loop``   — the per-record columnar kernel in this module (the
#       pre-v2 fast path);
#   ``off``    — golden lock-step model only.

FAST_MODES = ("vector", "loop", "off")

_override: Optional[str] = None


def normalize_fast_mode(value: Optional[str]) -> Optional[str]:
    """``value`` itself when it is a mode name or ``None``; raises
    ``ValueError`` on anything else (booleans included)."""
    if value is None or value in FAST_MODES:
        return value
    raise ValueError(
        f"bad fast-path mode {value!r} (expected one of {FAST_MODES})")


def fastpath_mode() -> str:
    """The active kernel selection: the installed override (the engine
    installs its ``config.fast`` around execution, in-process and in
    every pool worker), else the library default ``vector``."""
    return _override or "vector"


def set_fastpath_override(value: Optional[str]) -> Optional[str]:
    """Force a fast-path mode (``None`` restores the library default);
    returns the previous override."""
    global _override
    previous = _override
    _override = normalize_fast_mode(value)
    return previous


@contextlib.contextmanager
def fastpath_override(value):
    previous = set_fastpath_override(value)
    try:
        yield
    finally:
        set_fastpath_override(previous)


# Test seam for the validation watchdog: when set, the tap transforms
# the kernel's result before it is returned, simulating a buggy fast
# path without touching the kernel itself.  Production leaves it None.
_stats_tap = None


@contextlib.contextmanager
def stats_tap(tap):
    """Install a ``TimingStats -> TimingStats`` transform on the fast
    path's output for the duration of the block (tests only)."""
    global _stats_tap
    previous = _stats_tap
    _stats_tap = tap
    try:
        yield
    finally:
        _stats_tap = previous


# ----------------------------------------------------------------------
# Per-static-word metadata.

#: Branch-class codes used by the kernel's dispatch.
_K_OTHER, _K_COND, _K_BRR, _K_BRRA, _K_JMP, _K_JAL, _K_JR, _K_LOAD, \
    _K_STORE = range(9)


def _word_tables(instrs: List[Instruction]) -> Tuple[bytearray, list, list,
                                                     list, list, bytearray]:
    """Flat per-word-id lookup tables: branch class, up to two source
    registers (``-1`` = absent), destination register (``-1`` = none),
    execution latency and the is-return flag."""
    n = len(instrs)
    kclass = bytearray(n)
    src1 = [-1] * n
    src2 = [-1] * n
    dest = [-1] * n
    lat = [1] * n
    is_ret = bytearray(n)
    for i, instr in enumerate(instrs):
        op = instr.op
        if op is Op.BRR:
            kclass[i] = _K_BRR
        elif op is Op.BRRA:
            kclass[i] = _K_BRRA
        elif instr.is_cond_branch:
            kclass[i] = _K_COND
        elif op is Op.JMP:
            kclass[i] = _K_JMP
        elif op is Op.JAL:
            kclass[i] = _K_JAL
        elif op is Op.JR:
            kclass[i] = _K_JR
            is_ret[i] = 1 if instr.is_return else 0
        elif instr.is_load:
            kclass[i] = _K_LOAD
        elif instr.is_store:
            kclass[i] = _K_STORE
        sources = instr.sources()
        if sources:
            src1[i] = sources[0]
            if len(sources) > 1:
                src2[i] = sources[1]
        d = instr.dest()
        if d is not None:
            dest[i] = d
        lat[i] = instr.latency
    return kclass, src1, src2, dest, lat, is_ret


# ----------------------------------------------------------------------
# The kernel.

def run_fastpath(
    trace: RecordedTrace,
    i_skip: int,
    i_begin: int,
    i_end: int,
    config: Optional[TimingConfig] = None,
    program=None,
    prewarm_code: bool = True,
) -> TimingStats:
    """Replay records ``i_skip+1 .. i_end`` of ``trace`` and return the
    measured-window stats (records after ``i_begin`` — the same
    snapshot-and-subtract schedule as the golden
    :func:`~repro.timing.runner.replay_window` loop).

    Raises :class:`FastPathUnsupported` for anything the kernel cannot
    reproduce bit-exactly.
    """
    cfg = config or TimingConfig()
    cols = trace.columns()
    if cols.has_trapped:
        # Golden path raises on trap-emulated records; let it.
        raise FastPathUnsupported("trace contains trap-emulated records")

    # ----- columns ----------------------------------------------------
    pcs = cols.pc
    wids = cols.word_id
    npcs = cols.next_pc
    tks = cols.taken
    mems = cols.mem_addr
    kclass, src1, src2, dest, lat_tab, is_ret = _word_tables(cols.instrs)

    # ----- config locals ----------------------------------------------
    fetch_width = cfg.fetch_width
    decode_width = cfg.decode_width
    issue_width = cfg.issue_width
    commit_width = cfg.commit_width
    rob_entries = cfg.rob_entries
    preg_budget = max(1, cfg.phys_regs - 16)
    frontend_depth = cfg.frontend_depth
    backend_penalty = cfg.backend_penalty
    line_bytes = cfg.line_bytes
    l1_lat = cfg.l1_latency
    l2_lat = cfg.l2_latency
    mem_lat = cfg.memory_latency
    brr_front = cfg.brr_resolve_at_decode
    brr_predicted = cfg.brr_uses_predictor
    brr_at_decode = cfg.brr_commits_at_decode
    brr_shared = cfg.brr_shared_lfsr
    prune_threshold = _Bandwidth.PRUNE_THRESHOLD
    prune_window = _Bandwidth.PRUNE_WINDOW

    # ----- predictor / BTB / RAS tables -------------------------------
    h_mask = (1 << cfg.gshare_history_bits) - 1
    g_tab = bytearray(b"\x01" * (1 << cfg.gshare_history_bits))
    g_mask = h_mask
    b_tab = bytearray(b"\x01" * cfg.bimodal_entries)
    b_mask = cfg.bimodal_entries - 1
    ch_tab = bytearray(b"\x01" * cfg.chooser_entries)
    ch_mask = cfg.chooser_entries - 1
    history = 0
    btb_mask = cfg.btb_entries - 1
    btb_tags = [-1] * cfg.btb_entries
    btb_targets = [0] * cfg.btb_entries
    ras_entries = cfg.ras_entries
    ras_stack = [0] * ras_entries
    ras_top = 0
    ras_depth = 0

    # ----- cache hierarchy (insertion-ordered dicts == true LRU) ------
    i_nsets = cfg.l1i_size // (cfg.l1i_assoc * line_bytes)
    d_nsets = cfg.l1d_size // (cfg.l1d_assoc * line_bytes)
    l2_nsets = cfg.l2_size // (cfg.l2_assoc * line_bytes)
    i_assoc, d_assoc, l2_assoc = cfg.l1i_assoc, cfg.l1d_assoc, cfg.l2_assoc
    i_sets = [dict() for _ in range(i_nsets)]
    d_sets = [dict() for _ in range(d_nsets)]
    l2_sets = [dict() for _ in range(l2_nsets)]
    i_miss = d_miss = l2_miss = 0

    if prewarm_code:
        if program is None:
            raise ValueError("prewarm_code requires the program image")
        addr = program.base
        end_addr = program.end
        while addr < end_addr:
            line = addr // line_bytes
            s2 = l2_sets[line % l2_nsets]
            if line in s2:
                del s2[line]
                s2[line] = True
            else:
                l2_miss += 1
                s2[line] = True
                if len(s2) > l2_assoc:
                    del s2[next(iter(s2))]
            addr += line_bytes

    # ----- pipeline state ---------------------------------------------
    fetch_cycle = 0
    fetch_slots = fetch_width
    last_line = -1
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
    rob = deque()
    pregs = deque()
    rob_append, rob_popleft = rob.append, rob.popleft
    pregs_append, pregs_popleft = pregs.append, pregs.popleft
    next_brr_slot = 0

    # ----- counters ---------------------------------------------------
    instructions = 0
    cond_branches = cond_mispredicts = 0
    brr_resolved = brr_taken = 0
    frontend_redirects = backend_redirects = 0
    brr_packet_splits = fetch_breaks = rob_stall_cycles = 0
    loads = stores = 0

    baseline = None  # counters snapshot taken after stepping i_begin

    index = i_skip + 1
    while index <= i_end:
        pc = pcs[index]
        wid = wids[index]
        next_pc = npcs[index]
        tk = tks[index]
        kc = kclass[wid]

        # ---------------- fetch ----------------
        line = pc // line_bytes
        if line != last_line:
            s1 = i_sets[line % i_nsets]
            if line in s1:
                del s1[line]
                s1[line] = True
            else:
                i_miss += 1
                s2 = l2_sets[line % l2_nsets]
                if line in s2:
                    del s2[line]
                    s2[line] = True
                    fill = l2_lat
                else:
                    l2_miss += 1
                    s2[line] = True
                    if len(s2) > l2_assoc:
                        del s2[next(iter(s2))]
                    fill = l2_lat + mem_lat
                s1[line] = True
                if len(s1) > i_assoc:
                    del s1[next(iter(s1))]
                latency = l1_lat + fill
                if latency > l1_lat:
                    fetch_cycle += latency - l1_lat
                    fetch_slots = fetch_width
            last_line = line
        fetch = fetch_cycle
        fetch_slots -= 1
        if fetch_slots == 0:
            fetch_cycle = fetch + 1
            fetch_slots = fetch_width

        # ---------------- predict ----------------
        # mis: 0 = correct, 1 = front (resolved at decode), 2 = back.
        mis = 0
        ptaken = False
        if kc != _K_OTHER:
            if kc == _K_COND or (brr_predicted and kc == _K_BRR):
                if kc == _K_COND:
                    cond_branches += 1
                    resolve = 2
                else:
                    brr_resolved += 1
                    if tk:
                        brr_taken += 1
                    resolve = 1 if brr_front else 2
                pc2 = pc >> 2
                g_idx = (pc2 ^ history) & g_mask
                g_ctr = g_tab[g_idx]
                b_idx = pc2 & b_mask
                b_ctr = b_tab[b_idx]
                g_pred = g_ctr >= 2
                b_pred = b_tab[b_idx] >= 2
                bti = pc2 & btb_mask
                if (g_pred if ch_tab[pc2 & ch_mask] >= 2 else b_pred):
                    ptaken = btb_tags[bti] == pc
                    if ptaken:
                        correct = tk and btb_targets[bti] == next_pc
                    else:
                        correct = not tk
                else:
                    correct = not tk
                if g_pred != b_pred:
                    ci = pc2 & ch_mask
                    c_ctr = ch_tab[ci]
                    if g_pred == tk:
                        if c_ctr < 3:
                            ch_tab[ci] = c_ctr + 1
                    elif c_ctr > 0:
                        ch_tab[ci] = c_ctr - 1
                if tk:
                    if g_ctr < 3:
                        g_tab[g_idx] = g_ctr + 1
                elif g_ctr > 0:
                    g_tab[g_idx] = g_ctr - 1
                history = ((history << 1) | tk) & h_mask
                if tk:
                    if b_ctr < 3:
                        b_tab[b_idx] = b_ctr + 1
                elif b_ctr > 0:
                    b_tab[b_idx] = b_ctr - 1
                if tk:
                    btb_tags[bti] = pc
                    btb_targets[bti] = next_pc
                if not correct:
                    mis = resolve
                    if kc == _K_COND:
                        cond_mispredicts += 1
            elif kc == _K_BRR or kc == _K_BRRA:
                brr_resolved += 1
                if tk:
                    brr_taken += 1
                if brr_predicted:
                    # Only BRRA reaches here (predicted BRR handled
                    # above); it predicts through the BTB alone.
                    bti = (pc >> 2) & btb_mask
                    ptaken = btb_tags[bti] == pc
                    if not ptaken:
                        mis = 1 if brr_front else 2
                    btb_tags[bti] = pc
                    btb_targets[bti] = next_pc
                elif tk:
                    mis = 1 if brr_front else 2
            elif kc == _K_JMP or kc == _K_JAL:
                bti = (pc >> 2) & btb_mask
                ptaken = btb_tags[bti] == pc and btb_targets[bti] == next_pc
                if not ptaken:
                    mis = 1
                btb_tags[bti] = pc
                btb_targets[bti] = next_pc
                if kc == _K_JAL:
                    ras_top = (ras_top + 1) % ras_entries
                    ras_stack[ras_top] = pc + 4
                    if ras_depth < ras_entries:
                        ras_depth += 1
            elif kc == _K_JR:
                if is_ret[wid]:
                    if ras_depth == 0:
                        matched = False
                    else:
                        matched = ras_stack[ras_top] == next_pc
                        ras_top = (ras_top - 1) % ras_entries
                        ras_depth -= 1
                else:
                    bti = (pc >> 2) & btb_mask
                    matched = (btb_tags[bti] == pc
                               and btb_targets[bti] == next_pc)
                    btb_tags[bti] = pc
                    btb_targets[bti] = next_pc
                if matched:
                    ptaken = True
                else:
                    mis = 2

        # ---------------- decode / rename ----------------
        ready = fetch + frontend_depth
        if ready < last_decode:
            ready = last_decode
        if brr_shared and kc == _K_BRR:
            if ready < next_brr_slot:
                brr_packet_splits += 1
                ready = next_brr_slot
        commits_at_decode = brr_at_decode and (kc == _K_BRR or kc == _K_BRRA)
        dst = dest[wid]
        if not commits_at_decode:
            if len(rob) >= rob_entries:
                free_at = rob_popleft()
                if free_at > ready:
                    rob_stall_cycles += free_at - ready
                    ready = free_at
            if dst >= 0 and len(pregs) >= preg_budget:
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
        if brr_shared and kc == _K_BRR:
            next_brr_slot = decode + 1

        # ---------------- execute & commit ----------------
        if commits_at_decode:
            complete = decode
            commit = decode
        else:
            ready_ex = decode + 1
            s = src1[wid]
            if s >= 0:
                t = reg_ready[s]
                if t > ready_ex:
                    ready_ex = t
                s = src2[wid]
                if s >= 0:
                    t = reg_ready[s]
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
                for key in [k for k in counts if k < cutoff]:
                    del counts[key]
            issue = cycle
            if kc == _K_LOAD:
                loads += 1
                maddr = mems[index]
                line = maddr // line_bytes
                s1 = d_sets[line % d_nsets]
                if line in s1:
                    del s1[line]
                    s1[line] = True
                    dlat = l1_lat
                else:
                    d_miss += 1
                    s2 = l2_sets[line % l2_nsets]
                    if line in s2:
                        del s2[line]
                        s2[line] = True
                        fill = l2_lat
                    else:
                        l2_miss += 1
                        s2[line] = True
                        if len(s2) > l2_assoc:
                            del s2[next(iter(s2))]
                        fill = l2_lat + mem_lat
                    s1[line] = True
                    if len(s1) > d_assoc:
                        del s1[next(iter(s1))]
                    dlat = l1_lat + fill
                if dlat < 1:
                    dlat = 1
                complete = issue + dlat
            elif kc == _K_STORE:
                stores += 1
                maddr = mems[index]
                line = maddr // line_bytes
                s1 = d_sets[line % d_nsets]
                if line in s1:
                    del s1[line]
                    s1[line] = True
                else:
                    d_miss += 1
                    s2 = l2_sets[line % l2_nsets]
                    if line in s2:
                        del s2[line]
                        s2[line] = True
                    else:
                        l2_miss += 1
                        s2[line] = True
                        if len(s2) > l2_assoc:
                            del s2[next(iter(s2))]
                    s1[line] = True
                    if len(s1) > d_assoc:
                        del s1[next(iter(s1))]
                complete = issue + 1
            else:
                complete = issue + lat_tab[wid]
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
        if mis == 1:
            frontend_redirects += 1
            resume = decode + 1
            if resume > fetch_cycle:
                fetch_cycle = resume
            fetch_slots = fetch_width
            last_line = -1
        elif mis == 2:
            backend_redirects += 1
            resume = complete + 1
            minimum = fetch + backend_penalty
            if resume < minimum:
                resume = minimum
            if resume > fetch_cycle:
                fetch_cycle = resume
            fetch_slots = fetch_width
            last_line = -1
        elif ptaken:
            fetch_breaks += 1
            if fetch + 1 > fetch_cycle:
                fetch_cycle = fetch + 1
            fetch_slots = fetch_width
            last_line = -1

        instructions += 1

        if index == i_begin:
            baseline = (instructions, final_commit + 1, cond_branches,
                        cond_mispredicts, brr_resolved, brr_taken,
                        frontend_redirects, backend_redirects,
                        brr_packet_splits, fetch_breaks, rob_stall_cycles,
                        loads, stores, i_miss, d_miss, l2_miss)
        index += 1

    # ------------------------------------------------------------------
    # Mirror the golden schedule's snapshot-and-subtract arithmetic,
    # including its two edge cases: counters are only *published* into
    # the stats object by step(), so a window that never steps reports
    # zeros (not the prewarm misses), and a baseline at or before the
    # fast-forward point stays the all-zero initial snapshot.
    if i_end > i_skip:
        finals = (instructions, final_commit + 1, cond_branches,
                  cond_mispredicts, brr_resolved, brr_taken,
                  frontend_redirects, backend_redirects, brr_packet_splits,
                  fetch_breaks, rob_stall_cycles, loads, stores,
                  i_miss, d_miss, l2_miss)
    else:
        finals = (0,) * 16
    if baseline is None:
        baseline = (0,) * 16
    diff = [f - b for f, b in zip(finals, baseline)]
    stats = TimingStats(
        instructions=diff[0], cycles=diff[1], cond_branches=diff[2],
        cond_mispredicts=diff[3], brr_resolved=diff[4], brr_taken=diff[5],
        frontend_redirects=diff[6], backend_redirects=diff[7],
        brr_packet_splits=diff[8], fetch_breaks=diff[9],
        rob_stall_cycles=diff[10], loads=diff[11], stores=diff[12],
        icache_misses=diff[13], dcache_misses=diff[14], l2_misses=diff[15],
    )
    if _stats_tap is not None:
        stats = _stats_tap(stats)
    return stats
