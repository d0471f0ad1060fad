"""Vectorized span-replay timing kernel (the default fast path).

The loop kernel (:func:`repro.timing.fastpath.run_fastpath`) runs one
Python iteration per record over the event passes' products.  This
module removes that per-record loop for the windows where it pays: the
timing recurrence becomes a handful of whole-window numpy array passes
over the same memoised ``ifill``/``dlat``/``mis``/``ptk`` arrays and
counters (:func:`~repro.timing.events._cache_pass`,
:func:`~repro.timing.events._branch_pass`).

On top of the passes' timing independence, one more structural fact
makes the array passes exact rather than approximate: **the frontier
allocators are prefix scans.**  The decode and commit ``_Bandwidth``
rings over a non-decreasing ready sequence satisfy
``t[i] = max(t[i-1]+1, W*ready[i])`` with ``slot = t // W`` — an
``np.maximum.accumulate`` over the whole window.  Fetch between
stall/redirect boundaries is the closed form ``F + j // fetch_width``
per span, with spans segmented at the precomputed ``mis``/``ptk``
/``ifill`` positions.

What remains serial — redirect resume times feeding later spans'
fetch, dataflow operand forwarding feeding issue — is solved by a
whole-window fixpoint: every pass is recomputed from the previous
iteration's arrays until nothing changes.  Because each record's
inputs come only from *earlier* records (the system is a DAG in record
order), the fixpoint is unique and equals the serial execution
bit-for-bit; a converged iteration is therefore a *proof* of
equivalence, not a heuristic.  Optimistic in-pass resume estimates
(backend redirects usually resume at ``fetch + penalty``; decode
usually tracks ``fetch + frontend_depth``) make real traces converge
in 2-4 iterations.

Windows the solver does not finish are replayed by the loop kernel,
which reads the same event passes.  One place
decides up front — *admission*, before any per-window pass runs:

* ``dense``: more than :data:`MAX_CONTROL_SHARE` of the window's
  records are control flow, so spans are short, the fixpoint is slow
  to converge and the loop kernel is the cheaper exact replay;
* ``shared_lfsr``: shared-LFSR arbitration over brr records serially
  couples decode, which the span passes cannot express.

Inside :func:`_solve`, ``envelope`` covers the rest: issue requests
far enough behind the frontier to interact with ``_Bandwidth``
pruning, and windows that fail to converge under the iteration caps.
Trap-emulated traces raise :class:`FastPathUnsupported`.
``REPRO_FAST=vector`` (the default) selects this kernel; see
``docs/performance.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as _np

from ..sim.trace_io import RecordedTrace, TraceColumns
from .config import TimingConfig
from .pipeline import TimingStats, _Bandwidth
from . import fastpath as _fp
from .events import (  # noqa: F401 - VEC_CACHE_ENTRIES for tests
    VEC_CACHE_ENTRIES, _branch_pass, _cache_pass, _memo, _np_tables,
    _remember, _window_kc,
    _K_COND, _K_BRR, _K_BRRA, _K_JR, _K_LOAD, _K_STORE,
)
from .fastpath import FastPathUnsupported

#: Whole-window fixpoint iteration cap; windows that have not proven
#: convergence by then delegate to the loop kernel.
MAX_OUTER_ITERATIONS = 60

#: Dataflow (operand-forwarding) inner fixpoint cap per outer pass.
MAX_INNER_ITERATIONS = 60

#: Admission: a window whose control-flow records (``_K_COND`` ..
#: ``_K_JR``) exceed this share of its records goes straight to the
#: loop kernel.  Measured per replay (first and repeat replays of a
#: window), vector vs loop kernel, on a 2-vCPU x86-64 host:
#:
#: * figure12 windows (scale 0.01-1.0, 115 replays, 14.8k-155k
#:   records): share 0.012-0.050; vector faster on 106;
#: * entropy-sweep windows (scale 16, 20 replays, 272-1048 records):
#:   share 0.153-0.588; vector faster on none;
#: * figure13 microbench windows (scale 144, 164 replays, 1.1k-2.7k
#:   records): share 0.300-0.564; vector faster on none, 1.9-28x
#:   slower, and 74 of them fail the envelope inside ``_solve``;
#: * adversarial fuzz windows (24 replays, 104-264 records): share
#:   0.261-0.367; vector faster on none.
#:
#: 1/8 sits inside the empty gap between 0.050 and 0.153.  The record
#: count needs no floor of its own: every measured window under 14.8k
#: records is also dense.
MAX_CONTROL_SHARE = 1 / 8

#: Write-only mirror of the kernel the most recent
#: :func:`run_fastpath_vec` call ran (``"vector"`` or ``"loop"``), kept
#: for the benchmark's span tracer (``perfbench/tracer.py``).  Nothing
#: in ``repro`` reads it: the call returns its kernel and route.
last_kernel: Optional[str] = None


class _Delegate(Exception):
    """Internal: this window must be replayed by the loop kernel."""


def _admit(kc, cfg: TimingConfig, cost_check: bool) -> str:
    """Admission: route a window before any per-window pass runs.

    Returns ``"admitted"``, or why the loop kernel replays it instead:
    ``"shared_lfsr"`` (the single-LFSR priority encoder serially
    couples the decode of consecutive brr records — an exactness
    limit) or ``"dense"`` (a cost verdict, see
    :data:`MAX_CONTROL_SHARE`; skipped when ``cost_check`` is false).
    """
    if cfg.brr_shared_lfsr and bool((kc == _K_BRR).any()):
        return "shared_lfsr"
    if cost_check:
        control = _np.count_nonzero((kc >= _K_COND) & (kc <= _K_JR))
        if control > MAX_CONTROL_SHARE * kc.size:
            return "dense"
    return "admitted"


# ----------------------------------------------------------------------
# Issue-port bandwidth: exact allocation for non-monotonic requests.


def _alloc_issue(req, width: int):
    """Exact ``_Bandwidth`` outcome for ``req`` (arrival order).

    Cycles that never fill (``count < width`` including spill-in) keep
    ``issue == ready``; congested runs — maximal cycle intervals where
    requests could spill — are resolved by the reference allocator over
    just their members, which is exact because requests outside a run
    can neither consume nor contribute slots inside it.
    """
    if req.size == 0:
        return req.copy()
    rel = req - int(req.min())
    bins = _np.bincount(rel)
    over = bins - width
    if not (over > 0).any():
        return req  # no cycle oversubscribed: everyone keeps its slot
    cum = _np.cumsum(over)
    spill = cum - _np.minimum.accumulate(_np.minimum(cum, 0))
    congested = over > 0
    congested[1:] |= spill[:-1] > 0
    # Label each maximal congested run, map every request to its run
    # (or -1), and group the members of all runs with one stable sort
    # — stability preserves arrival order within a run, which is what
    # the reference allocator's outcome depends on.
    starts = congested.copy()
    starts[1:] &= ~congested[:-1]
    run_of_cycle = _np.where(congested, _np.cumsum(starts) - 1, -1)
    rid = run_of_cycle[rel]
    sel = _np.flatnonzero(rid >= 0)
    order = sel[_np.argsort(rid[sel], kind="stable")]
    bounds = _np.flatnonzero(_np.diff(rid[order])) + 1
    issue = req.copy()
    vals = req[order].tolist()
    out: List[int] = []
    lo_g = 0
    for hi_g in bounds.tolist() + [order.size]:
        counts: Dict[int, int] = {}
        for c in vals[lo_g:hi_g]:
            n = counts.get(c, 0)
            while n >= width:
                c += 1
                n = counts.get(c, 0)
            counts[c] = n + 1
            out.append(c)
        lo_g = hi_g
    issue[order] = out
    return issue


# ----------------------------------------------------------------------
# The kernel.


def _prep(cols: TraceColumns, lo: int, hi: int, kc, cfg: TimingConfig,
          program, prewarm_code: bool) -> Dict:
    """Everything about an admitted (window, config) pair that does not
    change across replays: expanded tables, event-pass products,
    dataflow last-writer links, deque-lag gather indices and the
    fetch-span structure.  Cached on the trace's columns."""
    key = ("prep", lo, hi, cfg, bool(prewarm_code))
    cache = _memo(cols)
    hit = cache.get(key)
    if hit is not None:
        return hit

    m = hi - lo
    wid_np = _np.frombuffer(cols.word_id, dtype=_np.int64)[lo:hi]
    src1w, src2w, destw, latw = _np_tables(cols)[1:5]

    ifill, dlat, cache_counters = _cache_pass(
        cols, lo, hi, kc, cfg, program, prewarm_code)
    mis, ptk, branch_counters = _branch_pass(cols, lo, hi, kc, cfg)

    ar = _np.arange(m, dtype=_np.int64)
    if cfg.brr_commits_at_decode:
        cad = (kc == _K_BRR) | (kc == _K_BRRA)
    else:
        cad = _np.zeros(m, dtype=bool)
    noncad = ~cad
    nc_idx = _np.flatnonzero(noncad)
    ar_nc = _np.arange(nc_idx.size, dtype=_np.int64)

    latv = _np.where(kc == _K_LOAD, dlat,
                     _np.where(kc == _K_STORE, 1, latw[wid_np]))
    lat_nc = latv[nc_idx]

    dstv = _np.where(noncad, destw[wid_np], -1)
    s1v = _np.where(noncad, src1w[wid_np], -1)
    s2v = _np.where(noncad, src2w[wid_np], -1)
    writer = dstv >= 0
    lw1 = _np.full(m, -1, dtype=_np.int64)
    lw2 = _np.full(m, -1, dtype=_np.int64)
    for r in range(16):
        wr = _np.flatnonzero(writer & (dstv == r))
        if wr.size == 0:
            continue
        for srcv, lw in ((s1v, lw1), (s2v, lw2)):
            rd = _np.flatnonzero(srcv == r)
            if rd.size == 0:
                continue
            pos = _np.searchsorted(wr, rd, side="left") - 1
            ok = pos >= 0
            lw[rd[ok]] = wr[pos[ok]]

    rob_cap = cfg.rob_entries
    rob_tgt = nc_idx[rob_cap:]
    rob_src = nc_idx[:max(0, nc_idx.size - rob_cap)]
    preg_budget = max(1, cfg.phys_regs - 16)
    wr_all = _np.flatnonzero(writer)
    preg_tgt = wr_all[preg_budget:]
    preg_src = wr_all[:max(0, wr_all.size - preg_budget)]

    # Fetch-span structure: a span starts at the window head, after
    # every redirecting/fetch-breaking record, and at every record
    # whose line fill stalls fetch.
    boundary = (mis > 0) | (ptk != 0)
    starts_mask = _np.zeros(m, dtype=bool)
    starts_mask[0] = True
    starts_mask[1:] |= boundary[:-1]
    starts_mask |= ifill > 0
    seg_starts = _np.flatnonzero(starts_mask)
    seg_id = _np.cumsum(starts_mask) - 1
    offdiv = (ar - seg_starts[seg_id]) // cfg.fetch_width
    seg_len = _np.diff(_np.append(seg_starts, m))
    prevrec = seg_starts[1:] - 1
    mis_prev = mis[prevrec]
    btype = _np.where(mis_prev > 0, mis_prev,
                      _np.where(ptk[prevrec] != 0, 3, 0))

    return _remember(cache, key, {
        "m": m, "kc": kc, "cad": cad, "nc_idx": nc_idx,
        "ar": ar, "ar_nc": ar_nc, "lat_nc": lat_nc,
        "lw1": lw1, "lw2": lw2,
        "rob_tgt": rob_tgt, "rob_src": rob_src,
        "preg_tgt": preg_tgt, "preg_src": preg_src,
        "seg_starts": seg_starts, "seg_id": seg_id, "offdiv": offdiv,
        "seg_len_list": seg_len.tolist(),
        "btype_list": btype.tolist(),
        "prevrec": prevrec,
        "ifill_start_list": ifill[seg_starts].tolist(),
        # Per-span closed-form offsets: fetch cycle of the span's last
        # record, and the cycle fetch would continue at, both relative
        # to the span's start cycle.
        "fl_off_list": ((seg_len - 1) // cfg.fetch_width).tolist(),
        "post_off_list": ((seg_len - 1) // cfg.fetch_width
                          + (seg_len % cfg.fetch_width == 0)).tolist(),
        "mis": mis, "ptk": ptk,
        "counters": {**cache_counters, **branch_counters},
    })


def run_fastpath_vec(
    trace: RecordedTrace,
    i_skip: int,
    i_begin: int,
    i_end: int,
    config: Optional[TimingConfig] = None,
    program=None,
    prewarm_code: bool = True,
) -> Tuple[TimingStats, str, str]:
    """Replay records ``i_skip+1 .. i_end`` with the vectorized kernel;
    returns ``(stats, kernel, route)``.

    Same contract and snapshot-and-subtract schedule as
    :func:`repro.timing.fastpath.run_fastpath`; raises
    :class:`FastPathUnsupported` when the trace is trap-emulated.
    Windows that admission refuses, or that fall outside the solver's
    convergence/exactness guarantees, are replayed by the loop kernel
    (:func:`~repro.timing.fastpath.run_fastpath`, called through the
    module attribute), which reuses admission's ``kc`` and the
    memoised event passes, so the result is always byte-identical to
    the golden model.  ``kernel`` says which kernel ran (``"vector"``
    or ``"loop"``), ``route`` why: ``"admitted"`` (the vector kernel
    finished), ``"dense"`` or ``"shared_lfsr"`` (refused by admission)
    or ``"envelope"`` (admitted, then delegated by :func:`_solve`).
    """
    global last_kernel
    stats, last_kernel, route = _run(trace, i_skip, i_begin, i_end,
                                     config, program, prewarm_code,
                                     cost_check=True)
    return stats, last_kernel, route


def _run(trace: RecordedTrace, i_skip: int, i_begin: int, i_end: int,
         config: Optional[TimingConfig], program, prewarm_code: bool,
         cost_check: bool) -> Tuple[TimingStats, str, str]:
    """:func:`run_fastpath_vec`, whose admission skips its cost check
    when ``cost_check`` is false.

    That is the private entry of the equivalence suites and
    ``repro.fuzz``: dense windows, which production routes to the loop
    kernel, still reach :func:`_solve` there, so the solver stays under
    test.  The shared-LFSR check stays on — it is an exactness limit,
    not a cost verdict.
    """
    cfg = config or TimingConfig()
    cols = trace.columns()
    if cols.has_trapped:
        raise FastPathUnsupported("trace contains trap-emulated records")
    if prewarm_code and program is None:
        raise ValueError("prewarm_code requires the program image")

    lo = i_skip + 1
    hi = i_end + 1
    m = hi - lo
    if m <= 0:
        return TimingStats(), "vector", "admitted"

    kc = _window_kc(cols, lo, hi)
    route = _admit(kc, cfg, cost_check)
    if route == "admitted":
        p = _prep(cols, lo, hi, kc, cfg, program, prewarm_code)
        # A previous replay of this (window, config) that fell outside
        # the envelope marked the prep bundle; skip straight to the
        # loop kernel instead of re-paying the failed vector attempt.
        if p.get("delegate"):
            route = "envelope"
        else:
            try:
                fetch, decode, _complete, commit, _F = _solve(p, cfg)
            except _Delegate:
                p["delegate"] = True
                route = "envelope"
    if route != "admitted":
        return _fp.run_fastpath(trace, i_skip, i_begin, i_end,
                                config=cfg, program=program,
                                prewarm_code=prewarm_code,
                                kc=kc), "loop", route
    return (_timed_stats(p, cfg, fetch, decode, commit, i_begin - lo),
            "vector", route)


def _solve(p: Dict, cfg: TimingConfig):
    """The whole-window fixpoint.  Returns converged per-record cycle
    arrays; raises :class:`_Delegate` past the iteration caps or the
    issue-prune exactness envelope."""
    m = p["m"]
    ar, ar_nc = p["ar"], p["ar_nc"]
    nc_idx, lat_nc = p["nc_idx"], p["lat_nc"]
    lw1, lw2 = p["lw1"], p["lw2"]
    rob_tgt, rob_src = p["rob_tgt"], p["rob_src"]
    preg_tgt, preg_src = p["preg_tgt"], p["preg_src"]
    seg_id, offdiv = p["seg_id"], p["offdiv"]
    seg_len = p["seg_len_list"]
    btype = p["btype_list"]
    prevrec = p["prevrec"]
    ifill_at = p["ifill_start_list"]
    fl_off = p["fl_off_list"]
    post_off = p["post_off_list"]
    n_seg = len(seg_len)

    Wd, Wc = cfg.decode_width, cfg.commit_width
    Wi = cfg.issue_width
    fd = cfg.frontend_depth
    bp = cfg.backend_penalty
    prune_window = _Bandwidth.PRUNE_WINDOW

    # Warm start: a repeat replay of a memoised (window, config) seeds
    # the fixpoint with the previously converged state, so the loop
    # terminates after a single full verification pass.
    warm = p.get("warm")
    if warm is not None:
        decode, complete, commit, F_prev = warm
    else:
        zeros = _np.zeros(m, dtype=_np.int64)
        decode = zeros
        complete = zeros
        commit = zeros
        F_prev = None

    for _ in range(MAX_OUTER_ITERATIONS):
        # ---- fetch: sequential chain over spans, vector expansion ----
        if n_seg > 1:
            dec_b = decode[prevrec].tolist()
            comp_b = complete[prevrec].tolist()
        F_list = [0] * n_seg
        F = ifill_at[0]
        F_list[0] = F
        for k in range(1, n_seg):
            kp = k - 1
            fetch_last = F + fl_off[kp]
            post = F + post_off[kp]
            shift = 0 if F_prev is None else F - F_prev[kp]
            bt = btype[kp]
            if bt == 1:
                resume = dec_b[kp] + shift + 1
                floor_ = fetch_last + fd + 1
                if resume < floor_:
                    resume = floor_
            elif bt == 2:
                resume = comp_b[kp] + shift + 1
                floor_ = fetch_last + bp
                if resume < floor_:
                    resume = floor_
            elif bt == 3:
                resume = fetch_last + 1
            else:
                resume = 0
            F = (post if post > resume else resume) + ifill_at[k]
            F_list[k] = F
        F_np = _np.asarray(F_list, dtype=_np.int64)
        fetch = F_np[seg_id] + offdiv

        # ---- decode: p-scan with ROB / phys-reg release clamps ----
        ready = fetch + fd
        if rob_tgt.size:
            ready[rob_tgt] = _np.maximum(ready[rob_tgt], commit[rob_src])
        if preg_tgt.size:
            ready[preg_tgt] = _np.maximum(ready[preg_tgt],
                                          commit[preg_src])
        t = ar + _np.maximum.accumulate(Wd * ready - ar)
        decode_new = t // Wd

        # ---- execute: dataflow + issue-port fixpoint ----
        dec1 = decode_new + 1
        cp = _np.empty(m + 1, dtype=_np.int64)
        cp[m] = 0  # lw == -1 gathers this sentinel
        complete_inner = complete
        for _ in range(MAX_INNER_ITERATIONS):
            cp[:m] = complete_inner
            rex = _np.maximum(dec1, _np.maximum(cp[lw1], cp[lw2]))
            req = rex[nc_idx]
            if req.size > 1:
                # Exactness envelope: a request falling this far behind
                # the frontier could consult entries the golden
                # allocator has pruned.  Checking every pass also cuts
                # off diverging transients before they get expensive.
                amax = _np.maximum.accumulate(req)
                if bool((amax[:-1] - req[1:] >= prune_window - 1).any()):
                    raise _Delegate()
            issue_nc = _alloc_issue(req, Wi)
            complete_new = decode_new.copy()
            complete_new[nc_idx] = issue_nc + lat_nc
            if _np.array_equal(complete_new, complete_inner):
                break
            complete_inner = complete_new
        else:
            raise _Delegate()

        # ---- commit: p-scan over the non-decode-committed stream ----
        commit_new = decode_new.copy()
        if nc_idx.size:
            cnc = complete_new[nc_idx] + 1
            tnc = ar_nc + _np.maximum.accumulate(Wc * cnc - ar_nc)
            commit_new[nc_idx] = tnc // Wc

        if (F_prev == F_list
                and _np.array_equal(decode_new, decode)
                and _np.array_equal(complete_new, complete)
                and _np.array_equal(commit_new, commit)):
            if req.size > 1:
                # Exactness envelope of _alloc_issue: a request far
                # enough behind the allocation frontier could consult
                # entries the golden allocator has pruned.  One check
                # of the converged stream suffices — it equals the
                # stream the golden allocator saw.
                amax = _np.maximum.accumulate(issue_nc)
                if bool((amax[:-1] - req[1:] >= prune_window - 1).any()):
                    raise _Delegate()
            p["warm"] = (decode_new, complete_new, commit_new, F_list)
            return fetch, decode_new, complete_new, commit_new, F_list
        decode, complete, commit = decode_new, complete_new, commit_new
        F_prev = F_list
    raise _Delegate()


def _timed_stats(p: Dict, cfg: TimingConfig, fetch, decode, commit,
                 begin: int) -> TimingStats:
    """A converged solve's cycle arrays -> the shared stats assembly.
    Admission refuses shared-LFSR windows, so no brr packet splits."""
    m = p["m"]
    cyc = _np.maximum.accumulate(commit) + 1
    rob_stall = _np.zeros(m, dtype=_np.int64)
    rob_tgt, rob_src = p["rob_tgt"], p["rob_src"]
    if rob_tgt.size:
        dprev = _np.empty(m, dtype=_np.int64)
        dprev[0] = 0
        dprev[1:] = decode[:-1]
        ready_pre = _np.maximum(fetch + cfg.frontend_depth, dprev)
        stall = commit[rob_src] - ready_pre[rob_tgt]
        _np.maximum(stall, 0, out=stall)
        rob_stall[rob_tgt] = stall
    rob_c = _np.cumsum(rob_stall)

    def timed(pos: int):
        return int(cyc[pos]), 0, int(rob_c[pos])

    return _fp._assemble_stats(p["counters"], begin, m - 1,
                               timed(begin) if begin >= 0 else (0, 0, 0),
                               timed(m - 1))
