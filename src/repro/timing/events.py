"""The fast path's one model of the caches and the predictor.

Both fast kernels — the per-record loop kernel
(:func:`repro.timing.fastpath.run_fastpath`) and the numpy span kernel
(:mod:`repro.timing.fastpath_vec`) — replay the timing recurrence over
what this module precomputes once per window:

* **per-trace tables** — branch class, source/dest registers and
  latencies per static instruction word (:func:`_np_tables`), over the
  trace's columnar decode
  (:meth:`~repro.sim.trace_io.RecordedTrace.columns`);
* **the cache event pass** (:func:`_cache_pass`).  Cache-state
  evolution is timing-independent: the L1i lookup happens only when
  the fetched line changes, and a redirect-forced re-lookup of an
  unchanged line always hits the MRU way without perturbing LRU
  order.  So one scalar sweep over line-change and memory records
  yields every fetch-fill stall (``ifill``), load latency (``dlat``)
  and cumulative miss count;
* **the branch event pass** (:func:`_branch_pass`).  The tournament
  predictor, BTB and RAS are trained only by control-flow records, so
  one scalar sweep over those yields each record's misprediction
  class (``mis``: 0 correct / 1 front / 2 back), its predicted-taken
  flag (``ptk``) and the cumulative branch counters.

Everything is memoised on ``TraceColumns.vec_cache`` (at most
:data:`VEC_CACHE_ENTRIES` entries per trace), keyed by the window and
the config fields each pass reads, so every replay sharing the cache
geometry or the predictor shape pays a pass once.  The golden model
(:mod:`.pipeline`, :mod:`.caches`, :mod:`.predictors`) is the
independent reference these passes are checked against.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

import numpy as _np

from ..isa.instructions import Instruction, Op
from ..sim.trace_io import TraceColumns
from .config import TimingConfig


# ----------------------------------------------------------------------
# Per-static-word metadata.

#: Branch-class codes used by the kernels' dispatch.
_K_OTHER, _K_COND, _K_BRR, _K_BRRA, _K_JMP, _K_JAL, _K_JR, _K_LOAD, \
    _K_STORE = range(9)

#: Bound of the per-trace memo dict (word tables, event passes,
#: per-config prep bundles) hung off ``TraceColumns.vec_cache``.
VEC_CACHE_ENTRIES = 10


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


def _memo(cols: TraceColumns) -> Dict:
    cache = cols.vec_cache
    if cache is None:
        cache = cols.vec_cache = {}
    return cache


def _remember(cache: Dict, key, entry):
    """Insert into a per-trace memo, evicting the oldest entries so it
    holds at most :data:`VEC_CACHE_ENTRIES` afterwards."""
    while len(cache) >= VEC_CACHE_ENTRIES:
        del cache[next(iter(cache))]
    cache[key] = entry
    return entry


def _np_tables(cols: TraceColumns):
    """Per-word-id metadata as numpy arrays (cached per trace)."""
    cache = _memo(cols)
    hit = cache.get("tables")
    if hit is not None:
        return hit
    kclass, src1, src2, dest, lat, is_ret = _word_tables(cols.instrs)
    return _remember(cache, "tables", (
        _np.frombuffer(bytes(kclass), dtype=_np.uint8),
        _np.asarray(src1, dtype=_np.int64),
        _np.asarray(src2, dtype=_np.int64),
        _np.asarray(dest, dtype=_np.int64),
        _np.asarray(lat, dtype=_np.int64),
        bytes(is_ret),
    ))


def _window_kc(cols: TraceColumns, lo: int, hi: int):
    """Per-record kernel class of records ``lo .. hi-1``."""
    wid_np = _np.frombuffer(cols.word_id, dtype=_np.int64)[lo:hi]
    return _np_tables(cols)[0][wid_np]


# ----------------------------------------------------------------------
# Event passes.  Scalar, but over small record subsets, and memoised
# per (window, relevant-config-projection) so a config sweep or a
# repeated replay pays them once.


def _cache_pass(cols: TraceColumns, lo: int, hi: int, kc, cfg: TimingConfig,
                program, prewarm_code: bool):
    """Exact cache-hierarchy sweep.

    Returns ``(ifill, dlat, counters)``: per-record fetch-fill stall
    cycles and load latencies (int64 arrays over the replayed slice),
    and the cumulative ``loads``/``stores``/miss counters keyed by
    :class:`~repro.timing.pipeline.TimingStats` field (int32: a count
    is at most the slice's record count, far below 2**31 for any trace
    whose columns fit in memory).
    ``l2_misses`` includes the code pre-warm's misses, as the golden
    model's published counter does.
    """
    key = ("cache", lo, hi, cfg.line_bytes,
           cfg.l1i_size, cfg.l1i_assoc, cfg.l1d_size, cfg.l1d_assoc,
           cfg.l2_size, cfg.l2_assoc,
           cfg.l1_latency, cfg.l2_latency, cfg.memory_latency,
           bool(prewarm_code),
           (program.base, program.end) if prewarm_code else None)
    cache = _memo(cols)
    hit = cache.get(key)
    if hit is not None:
        return hit

    m = hi - lo
    line_bytes = cfg.line_bytes
    l1_lat, l2_lat, mem_lat = cfg.l1_latency, cfg.l2_latency, \
        cfg.memory_latency
    i_nsets = cfg.l1i_size // (cfg.l1i_assoc * line_bytes)
    d_nsets = cfg.l1d_size // (cfg.l1d_assoc * line_bytes)
    l2_nsets = cfg.l2_size // (cfg.l2_assoc * line_bytes)
    i_assoc, d_assoc, l2_assoc = cfg.l1i_assoc, cfg.l1d_assoc, cfg.l2_assoc
    i_sets = [dict() for _ in range(i_nsets)]
    d_sets = [dict() for _ in range(d_nsets)]
    l2_sets = [dict() for _ in range(l2_nsets)]

    prewarm_misses = 0
    if prewarm_code:
        addr = program.base
        end_addr = program.end
        while addr < end_addr:
            line = addr // line_bytes
            s2 = l2_sets[line % l2_nsets]
            if line in s2:
                del s2[line]
                s2[line] = True
            else:
                prewarm_misses += 1
                s2[line] = True
                if len(s2) > l2_assoc:
                    del s2[next(iter(s2))]
            addr += line_bytes

    pc_np = _np.frombuffer(cols.pc, dtype=_np.int64)[lo:hi]
    linev = pc_np // line_bytes
    lc = _np.empty(m, dtype=bool)
    lc[0] = True  # last_line starts at -1: the first record looks up
    _np.not_equal(linev[1:], linev[:-1], out=lc[1:])
    is_load = kc == _K_LOAD
    is_store = kc == _K_STORE
    ev = _np.flatnonzero(lc | is_load | is_store)

    ifill = array("q", bytes(8 * m))
    dlat = array("q", bytes(8 * m))
    im_d = bytearray(m)
    dm_d = bytearray(m)
    l2_d = bytearray(m)

    pcs = cols.pc
    mems = cols.mem_addr
    # Python ints, not numpy scalars, in the scalar loop: indexing and
    # comparing numpy scalars costs several times more per event.
    for e, changed, kce in zip(ev.tolist(), lc[ev].tolist(),
                               kc[ev].tolist()):
        if changed:
            line = pcs[lo + e] // line_bytes
            s1 = i_sets[line % i_nsets]
            if line in s1:
                del s1[line]
                s1[line] = True
            else:
                im_d[e] = 1
                s2 = l2_sets[line % l2_nsets]
                if line in s2:
                    del s2[line]
                    s2[line] = True
                    fill = l2_lat
                else:
                    l2_d[e] += 1
                    s2[line] = True
                    if len(s2) > l2_assoc:
                        del s2[next(iter(s2))]
                    fill = l2_lat + mem_lat
                s1[line] = True
                if len(s1) > i_assoc:
                    del s1[next(iter(s1))]
                if fill > 0:
                    ifill[e] = fill
        if kce == _K_LOAD or kce == _K_STORE:
            line = mems[lo + e] // line_bytes
            s1 = d_sets[line % d_nsets]
            if line in s1:
                del s1[line]
                s1[line] = True
                lat = l1_lat
            else:
                dm_d[e] = 1
                s2 = l2_sets[line % l2_nsets]
                if line in s2:
                    del s2[line]
                    s2[line] = True
                    fill = l2_lat
                else:
                    l2_d[e] += 1
                    s2[line] = True
                    if len(s2) > l2_assoc:
                        del s2[next(iter(s2))]
                    fill = l2_lat + mem_lat
                s1[line] = True
                if len(s1) > d_assoc:
                    del s1[next(iter(s1))]
                lat = l1_lat + fill
            if kce == _K_LOAD:
                if lat < 1:
                    lat = 1
                dlat[e] = lat

    csum = lambda b: _np.cumsum(_np.frombuffer(b, dtype=_np.uint8),
                                dtype=_np.int32)
    return _remember(cache, key, (
        _np.frombuffer(ifill, dtype=_np.int64),
        _np.frombuffer(dlat, dtype=_np.int64),
        {
            "loads": _np.cumsum(is_load, dtype=_np.int32),
            "stores": _np.cumsum(is_store, dtype=_np.int32),
            "icache_misses": csum(im_d),
            "dcache_misses": csum(dm_d),
            "l2_misses": csum(l2_d) + prewarm_misses,
        },
    ))


def _branch_pass(cols: TraceColumns, lo: int, hi: int, kc,
                 cfg: TimingConfig):
    """Exact predictor/BTB/RAS sweep over control-flow records.

    Returns ``(mis, ptk, counters)`` where ``mis``/``ptk`` are
    per-record uint8 arrays and ``counters`` maps the branch and
    redirect :class:`~repro.timing.pipeline.TimingStats` fields to
    cumulative int32 arrays.
    """
    key = ("branch", lo, hi, cfg.gshare_history_bits, cfg.bimodal_entries,
           cfg.chooser_entries, cfg.btb_entries, cfg.ras_entries,
           cfg.brr_resolve_at_decode, cfg.brr_uses_predictor)
    cache = _memo(cols)
    hit = cache.get(key)
    if hit is not None:
        return hit

    m = hi - lo
    is_ret = _np_tables(cols)[5]
    ctl = _np.flatnonzero((kc >= _K_COND) & (kc <= _K_JR))

    mis_b = bytearray(m)
    ptk_b = bytearray(m)
    cond_d = bytearray(m)
    condmp_d = bytearray(m)
    brrres_d = bytearray(m)
    brrtk_d = bytearray(m)

    brr_front = cfg.brr_resolve_at_decode
    brr_predicted = cfg.brr_uses_predictor
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

    pcs, npcs, tks, wids = cols.pc, cols.next_pc, cols.taken, cols.word_id
    for e, kcv in zip(ctl.tolist(), kc[ctl].tolist()):
        idx = lo + e
        pc = pcs[idx]
        next_pc = npcs[idx]
        tk = tks[idx]
        mis = 0
        ptaken = False
        if kcv == _K_COND or (brr_predicted and kcv == _K_BRR):
            if kcv == _K_COND:
                cond_d[e] = 1
                resolve = 2
            else:
                brrres_d[e] = 1
                if tk:
                    brrtk_d[e] = 1
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
                if g_pred == bool(tk):
                    if c_ctr < 3:
                        ch_tab[ci] = c_ctr + 1
                elif c_ctr > 0:
                    ch_tab[ci] = c_ctr - 1
            if tk:
                if g_ctr < 3:
                    g_tab[g_idx] = g_ctr + 1
            elif g_ctr > 0:
                g_tab[g_idx] = g_ctr - 1
            history = ((history << 1) | (1 if tk else 0)) & h_mask
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
                if kcv == _K_COND:
                    condmp_d[e] = 1
        elif kcv == _K_BRR or kcv == _K_BRRA:
            brrres_d[e] = 1
            if tk:
                brrtk_d[e] = 1
            if brr_predicted:
                # Only BRRA reaches here; BTB-only prediction.
                bti = (pc >> 2) & btb_mask
                ptaken = btb_tags[bti] == pc
                if not ptaken:
                    mis = 1 if brr_front else 2
                btb_tags[bti] = pc
                btb_targets[bti] = next_pc
            elif tk:
                mis = 1 if brr_front else 2
        elif kcv == _K_JMP or kcv == _K_JAL:
            bti = (pc >> 2) & btb_mask
            ptaken = btb_tags[bti] == pc and btb_targets[bti] == next_pc
            if not ptaken:
                mis = 1
            btb_tags[bti] = pc
            btb_targets[bti] = next_pc
            if kcv == _K_JAL:
                ras_top = (ras_top + 1) % ras_entries
                ras_stack[ras_top] = pc + 4
                if ras_depth < ras_entries:
                    ras_depth += 1
        else:  # _K_JR
            if is_ret[wids[idx]]:
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
        if mis:
            mis_b[e] = mis
        if ptaken:
            ptk_b[e] = 1

    mis_np = _np.frombuffer(bytes(mis_b), dtype=_np.uint8)
    ptk_np = _np.frombuffer(bytes(ptk_b), dtype=_np.uint8)
    csum = lambda b: _np.cumsum(_np.frombuffer(b, dtype=_np.uint8),
                                dtype=_np.int32)
    counters = {
        "cond_branches": csum(bytes(cond_d)),
        "cond_mispredicts": csum(bytes(condmp_d)),
        "brr_resolved": csum(bytes(brrres_d)),
        "brr_taken": csum(bytes(brrtk_d)),
        "frontend_redirects": _np.cumsum(mis_np == 1, dtype=_np.int32),
        "backend_redirects": _np.cumsum(mis_np == 2, dtype=_np.int32),
        "fetch_breaks": _np.cumsum((mis_np == 0) & (ptk_np != 0),
                                   dtype=_np.int32),
    }
    return _remember(cache, key, (mis_np, ptk_np, counters))
