"""Vectorized chunked replay kernel (``engine="vectorized"``).

The legacy hot loop (:func:`repro.sim.driver._replay`) pays Python call
overhead five times per reference even though most references are
pipelined L1 hits whose whole architectural effect is a handful of int
and float updates.  This kernel fuses the per-reference chain into one
loop over the columnar trace (:meth:`Trace.decoded_batch`) and resolves
long L1-hit stretches in numpy passes.  It has two tiers:

1. **L1-vector.**  The trace is swept in windows of :data:`WINDOW`
   references.  For each window the 2-way L1 probe is evaluated
   wholesale against a numpy mirror of the flat tag array (two gathers
   + two compares), yielding a predicted hit mask.  Runs of at least
   :data:`MIN_RUN` consecutive predicted hits are re-verified against
   the *current* tags (fills since the window prediction may have
   evicted a predicted frame) and, when still valid, resolved in one
   numpy pass: the cycle and branch-penalty accumulations are strict
   left folds (``np.add.accumulate``), which replay the exact float-op
   sequence of the scalar loop; instruction and read/write counts come
   from precomputed prefix sums (integer, exact); dirty bits are set by
   one fancy assignment into a writable view of the L1's dirty
   bytearray; LRU stamps are committed in reference order so recency
   is untouched.
2. **Scalar.**  Everything else — short runs, predicted misses,
   invalidated runs — goes through one fused scalar body: the L1 probe
   indexes the flat tag array of
   :class:`~repro.caches.simple.SetAssociativeCache` directly,
   ``advance_instructions`` and ``note_memory_result`` are inlined op by
   op (per-reference ``gap/ipc`` and branch-penalty terms precomputed
   vectorized; elementwise float64 ops are bit-identical to the scalar
   expressions), and only L1 misses walk the lower levels through their
   own ``access``/``fill`` methods.

Bit-identity contract
---------------------

The kernel replays the exact float-op sequence of the legacy loop,
drives the lower levels through the same ``access``/``fill`` calls at
the same ``now`` values, and batches integer counters, flushed in
``finally`` so a mid-replay
:class:`~repro.faults.models.UncorrectableDataError` leaves
legacy-identical state.  ``python -m repro.bench --engine-parity``
holds it to byte-identical summaries and telemetry reports.

Telemetry-armed runs stay on the kernel: the L1 client's ``on_access``
is replayed in reference order (applied vector runs included) when the
kernel returns, which is exact because that client only feeds its own
counters and histograms; L1 fills go through ``l1.fill`` so placement,
eviction and writeback events keep their order among the lower levels'
events; and the inlined MSHR allocate records the occupancy histogram.

Systems the kernel cannot take (see :func:`supports`) never reach it:
:func:`repro.sim.driver._replay` sends them to the legacy loop.

Kernel statistics (windows swept, refs resolved per tier, invalidated
runs, wall-clock per stage) land in the process-global runtime
registry (:mod:`repro.telemetry.runtime`) under ``vectorized.*`` — they
describe execution strategy, not the simulated machine, so they stay
out of run payloads.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import List, Tuple

import numpy as np

from repro.caches.mshr import MSHREntry
from repro.telemetry.runtime import runtime_registry

#: Prediction window: references per numpy probe pre-pass.
WINDOW = 4096
#: Minimum predicted-hit run length worth a vector application; below
#: this the per-run numpy call overhead exceeds the scalar loop cost.
MIN_RUN = 48


def supports(system, core) -> bool:
    """Whether the kernel can replay on ``system`` bit-identically.

    It needs a 2-way L1 without a fault injector whose latency and
    block size match the core's L1 constants.
    """
    l1 = system.l1d
    params = core.params
    return (
        l1.fault_injector is None
        and getattr(l1, "_assoc", None) == 2
        and l1.spec.latency_cycles == params.l1_hit_cycles
        and l1.spec.block_bytes == params.l1_block_bytes
    )


def replay(system, core, trace) -> None:
    """Replay ``trace``, resolving long L1-hit runs in numpy passes.

    Callers check :func:`supports` first.
    """
    l1 = system.l1d
    params = core.params
    hierarchy = system.hierarchy
    memory = system.memory
    lower = hierarchy.lower
    decoded = trace.decoded_batch(l1.spec.block_bytes, l1.n_sets)
    n_total = len(decoded)

    # L1 state.  The lists/bytearray are shared in place; tags_np is a
    # kernel-local mirror used only for hit prediction, updated on
    # every fill.  dirty_view shares the bytearray's memory, so fancy
    # assignments land directly in the cache's state.
    tags = l1._tags
    dirty = l1._dirty
    stamps = l1._stamps
    clock = l1._clock
    tags_np = np.array(tags, dtype=np.int64)
    dirty_view = np.frombuffer(dirty, dtype=np.uint8)
    l1_lat = l1.spec.latency_cycles
    l1_name = l1.name
    l1_energy = l1.energy
    # Armed telemetry: trace positions of the L1 misses (for the
    # on_access replay) and fills through l1.fill (for its events).
    l1_telem = l1.telemetry
    l1_fill = l1.fill
    l1_missed = set()

    # Core scalars, accumulated locally in the legacy float-op order.
    ipc = core.core_ipc
    bf = core.branch_fraction
    mr = core.mispredict_rate
    mp = params.mispredict_penalty
    exposure = core.exposure
    mlp_discount = params.memory_mlp_discount
    # MSHR state, fully inlined: the entries dict is shared in place;
    # min_fill and the three counters are kernel-local and flushed in
    # finally.  allocate's precondition checks (not full, no duplicate,
    # fill_at >= now) are guaranteed by the kernel's own control flow
    # and CoreModel's exposure-in-[0, 1] validation.
    mshr = core.mshrs
    mshr_entries = mshr._entries
    mshr_cap = mshr.capacity
    occ_hist = mshr.occupancy_hist
    min_fill = mshr._min_fill
    INF = float("inf")
    n_primary = n_merged = n_full = 0
    cycle = core.cycle
    instructions = core.instructions
    memory_accesses = core.memory_accesses
    bp = core.branch_penalty_cycles
    stall = core.stall_cycles
    mshr_stall = core.mshr_stall_cycles

    # Per-reference float terms, precomputed vectorized.  Elementwise
    # float64 ops equal the scalar expressions bit for bit (gaps are
    # small ints, exactly representable): t = gap/ipc and
    # p = ((gap*bf)*mr)*mp in the same association order.
    g_np = decoded.np_gaps
    t_np = g_np / ipc
    p_np = ((g_np * bf) * mr) * mp
    t_list = t_np.tolist()
    p_list = p_np.tolist()
    # Interleaved [t0, p0, t1, p1, ...] for the cycle fold, and prefix
    # sums for O(1) per-run instruction/write counts (int64, exact).
    z_np = np.empty(2 * n_total, dtype=np.float64)
    z_np[0::2] = t_np
    z_np[1::2] = p_np
    cum_gaps = np.cumsum(g_np)
    cum_writes = np.cumsum(decoded.np_writes.astype(np.int64))
    scratch = np.empty(2 * WINDOW + 1, dtype=np.float64)

    frames_np = decoded.np_frames
    baddrs_np = decoded.np_block_addrs
    writes_np = decoded.np_writes

    # Miss-path plumbing.
    stats = hierarchy.stats
    hist = hierarchy.miss_latency_hist
    first = lower[0]
    mem_lat = memory.transfer_cycles(lower[-1].block_bytes)
    lvl_names = [level.name for level in lower]
    n_lower = len(lower)

    # Batched integer counters (exact; flushed in finally).  gi is the
    # count of processed references; refs, instructions, reads/writes
    # and hits all derive from it at flush time via the prefix sums
    # (the legacy loop counts each of those before the lower-level
    # access that can raise, so the interrupted-ref accounting matches).
    gi = 0
    n_misses = 0
    n_fills = 0
    n_l1_wb = n_l1_wb_mem = 0
    n_mem_reads = n_mem_writes = 0
    lvl_acc = [0] * n_lower
    lvl_hits = [0] * n_lower
    lvl_wb = [0] * n_lower

    # Kernel strategy stats (runtime registry, not run payloads).
    n_vector = 0
    n_runs = 0
    n_runs_invalid = 0
    n_windows = 0
    probe_wall = 0.0
    apply_wall = 0.0
    wall_start = perf_counter()

    master = zip(
        decoded.addresses,
        decoded.block_addrs,
        decoded.frames,
        decoded.writes,
        t_list,
        p_list,
    )

    try:
        pos = 0
        while pos < n_total:
            wend = min(pos + WINDOW, n_total)
            n_windows += 1

            # Window prediction: which refs would hit against the tags
            # as they stand now.  Fills inside the window go stale,
            # which is why runs re-verify at apply time.
            t_probe = perf_counter()
            fr_w = frames_np[pos:wend]
            ba_w = baddrs_np[pos:wend]
            pred = tags_np[fr_w] == ba_w
            np.logical_or(pred, tags_np[fr_w + 1] == ba_w, out=pred)
            probe_wall += perf_counter() - t_probe

            runs: List[Tuple[int, int]] = []
            if bool(pred.any()):
                changes = np.flatnonzero(pred[1:] != pred[:-1])
                bounds = [0, *(changes + 1).tolist(), wend - pos]
                val = bool(pred[0])
                for m in range(len(bounds) - 1):
                    if val and bounds[m + 1] - bounds[m] >= MIN_RUN:
                        runs.append((pos + bounds[m], pos + bounds[m + 1]))
                    val = not val
            runs.append((wend, wend))  # sentinel: flush the scalar tail

            cursor = pos
            for rs, re in runs:
                # --- scalar span [cursor, rs) -----------------------
                for address, baddr, fr, is_write, t, p in islice(
                    master, rs - cursor
                ):
                    gi += 1
                    cycle += t
                    bp += p
                    cycle += p
                    if tags[fr] == baddr:
                        stamps[fr] = clock
                        clock += 1
                        if is_write:
                            dirty[fr] = 1
                        continue
                    f1 = fr + 1
                    if tags[f1] == baddr:
                        stamps[f1] = clock
                        clock += 1
                        if is_write:
                            dirty[f1] = 1
                        continue

                    # L1 miss: CacheHierarchy._access, inlined.
                    n_misses += 1
                    if l1_telem is not None:
                        l1_missed.add(gi - 1)
                    total_latency = l1_lat
                    level_name = "memory"
                    missed = None
                    i = 0
                    for level in lower:
                        r = level.access(
                            address, is_write=False, now=cycle + total_latency
                        )
                        total_latency += r.latency
                        lvl_acc[i] += 1
                        if r.hit:
                            level_name = r.level or lvl_names[i]
                            lvl_hits[i] += 1
                            break
                        if missed is None:
                            missed = [i]
                        else:
                            missed.append(i)
                        i += 1
                    else:
                        n_mem_reads += 1
                        total_latency += mem_lat

                    fill_time = cycle + total_latency
                    if missed is not None:
                        for j in reversed(missed):
                            dirty_out = lower[j].fill(
                                address, now=fill_time, dirty=False
                            )
                            if dirty_out:
                                n_mem_writes += dirty_out
                                lvl_wb[j] += dirty_out

                    vdirty = 0
                    if l1_telem is None:
                        # Inline 2-way L1 fill (the probe above just
                        # missed and nothing since touched the L1, so
                        # the block cannot already be resident).  Same
                        # victim choice as SetAssociativeCache.fill:
                        # first free way, else the strictly-smallest
                        # stamp with the first way winning ties.
                        n_fills += 1
                        if tags[fr] < 0:
                            free = fr
                        elif tags[f1] < 0:
                            free = f1
                        else:
                            free = f1 if stamps[f1] < stamps[fr] else fr
                            vaddr = tags[free]
                            vdirty = dirty[free]
                        tags[free] = baddr
                        dirty[free] = 1 if is_write else 0
                        stamps[free] = clock
                        clock += 1
                    else:
                        # l1.fill emits the eviction/writeback/placement
                        # events and keeps its own energy and writeback
                        # books.
                        l1._clock = clock
                        victim = l1_fill(address, dirty=is_write)
                        clock = l1._clock
                        free = fr if tags[fr] == baddr else f1
                        if victim is not None and victim.dirty:
                            vaddr = victim.block_addr
                            vdirty = 1
                    tags_np[free] = baddr
                    if vdirty:
                        # _writeback_from_l1, inlined.
                        n_l1_wb += 1
                        rw = first.access(vaddr, is_write=True, now=fill_time)
                        lvl_acc[0] += 1
                        if rw.hit:
                            lvl_hits[0] += 1
                        else:
                            n_mem_writes += 1
                            n_l1_wb_mem += 1
                    if hist is not None:
                        hist.record(total_latency)

                    # note_memory_result, inlined (same float-op order).
                    beyond_l1 = total_latency - l1_lat
                    if beyond_l1 <= 0:
                        continue
                    if mshr_entries:
                        if cycle >= min_fill:
                            for a in [
                                a
                                for a, e in mshr_entries.items()
                                if e.fill_at <= cycle
                            ]:
                                del mshr_entries[a]
                            min_fill = INF
                            for e in mshr_entries.values():
                                if e.fill_at < min_fill:
                                    min_fill = e.fill_at
                        if len(mshr_entries) >= mshr_cap:
                            mshr_stall += min_fill - cycle
                            cycle = min_fill
                            for a in [
                                a
                                for a, e in mshr_entries.items()
                                if e.fill_at <= cycle
                            ]:
                                del mshr_entries[a]
                            min_fill = INF
                            for e in mshr_entries.values():
                                if e.fill_at < min_fill:
                                    min_fill = e.fill_at
                            n_full += 1
                    exp = exposure
                    if level_name == "memory":
                        exp *= mlp_discount
                    exposed = beyond_l1 * exp
                    stall += exposed
                    cycle += exposed
                    fill_at = cycle + beyond_l1 * (1.0 - exposure)
                    if baddr in mshr_entries:
                        mshr_entries[baddr].merged += 1
                        n_merged += 1
                    else:
                        mshr_entries[baddr] = MSHREntry(baddr, cycle, fill_at)
                        if fill_at < min_fill:
                            min_fill = fill_at
                        n_primary += 1
                        if occ_hist is not None:
                            occ_hist.record(len(mshr_entries))
                cursor = rs
                if re == rs:
                    continue

                # --- candidate run [rs, re): verify, then apply -----
                run_n = re - rs
                fr_r = frames_np[rs:re]
                ba_r = baddrs_np[rs:re]
                hit0 = tags_np[fr_r] == ba_r
                ok = hit0 | (tags_np[fr_r + 1] == ba_r)
                if not bool(ok.all()):
                    # A fill since prediction evicted a predicted
                    # frame; the run joins the next scalar span.
                    n_runs_invalid += 1
                    continue

                # Verified: every reference in the run hits, and hits
                # do not change tags, so the whole run resolves in one
                # vector application.
                t_apply = perf_counter()
                n_runs += 1
                n_vector += run_n
                gi += run_n
                # Strict left folds: identical float-op sequence to
                # cycle += t; bp += p; cycle += p per reference.
                m2 = 2 * run_n
                scratch[0] = cycle
                scratch[1 : m2 + 1] = z_np[2 * rs : 2 * re]
                np.add.accumulate(scratch[: m2 + 1], out=scratch[: m2 + 1])
                cycle = float(scratch[m2])
                scratch[0] = bp
                scratch[1 : run_n + 1] = p_np[rs:re]
                np.add.accumulate(scratch[: run_n + 1], out=scratch[: run_n + 1])
                bp = float(scratch[run_n])
                # Matched frames; dirty bits land via the shared view.
                mf = np.where(hit0, fr_r, fr_r + 1)
                w_r = writes_np[rs:re]
                if bool(w_r.any()):
                    dirty_view[mf[w_r]] = 1
                # LRU stamps in reference order (later refs win).
                for c, f in enumerate(mf.tolist(), clock):
                    stamps[f] = c
                clock += run_n
                # Consume the run's references from the scalar stream.
                next(islice(master, run_n, run_n), None)
                apply_wall += perf_counter() - t_apply
                cursor = re
            pos = wend
    finally:
        # Commit batched state.  Runs on an UncorrectableDataError from
        # a lower level too, leaving legacy-identical counters.
        n_refs = gi
        if gi:
            instructions += int(cum_gaps[gi - 1])
            n_writes = int(cum_writes[gi - 1])
        else:
            n_writes = 0
        n_reads = gi - n_writes
        n_hits = gi - n_misses
        l1._clock = clock
        l1.hits += n_hits
        l1.misses += n_misses
        if l1_telem is None:
            l1.writebacks += n_l1_wb
        else:
            # The L1 client's per-access hook, in reference order.  It
            # feeds only the client's own counters and histograms, so
            # replaying it after the loop is exact.
            on_access = l1_telem.on_access
            l1_lat_f = float(l1_lat)
            for k, baddr in enumerate(islice(decoded.block_addrs, n_refs)):
                on_access(baddr, k not in l1_missed, None, l1_lat_f)
        if n_reads:
            l1_energy.charge(f"{l1_name}.read", n_reads)
        if n_writes or n_fills:
            l1_energy.charge(f"{l1_name}.write", n_writes + n_fills)
        core.commit_batch(
            cycle=cycle,
            instructions=instructions,
            memory_accesses=memory_accesses + n_refs,
            branch_penalty_cycles=bp,
            stall_cycles=stall,
            mshr_stall_cycles=mshr_stall,
        )
        if n_refs:
            stats.add("l1_accesses", n_refs)
        if n_hits:
            stats.add("l1_hits", n_hits)
        for i in range(n_lower):
            if lvl_acc[i]:
                stats.add(lvl_names[i] + "_accesses", lvl_acc[i])
            if lvl_hits[i]:
                stats.add(lvl_names[i] + "_hits", lvl_hits[i])
            if lvl_wb[i]:
                stats.add(lvl_names[i] + "_writebacks", lvl_wb[i])
        if n_l1_wb:
            stats.add("l1_writebacks", n_l1_wb)
        if n_l1_wb_mem:
            stats.add("l1_writebacks_to_memory", n_l1_wb_mem)
        if n_mem_reads:
            stats.add("memory_reads", n_mem_reads)
        memory.reads += n_mem_reads
        memory.writes += n_mem_writes
        mshr._min_fill = min_fill
        mshr.primary_misses += n_primary
        mshr.merged_misses += n_merged
        mshr.full_stalls += n_full
        reg = runtime_registry()
        reg.add("vectorized.windows", n_windows)
        reg.add("vectorized.refs", n_refs)
        reg.add("vectorized.refs_vector", n_vector)
        reg.add("vectorized.refs_scalar", n_refs - n_vector)
        reg.add("vectorized.runs_applied", n_runs)
        if n_runs_invalid:
            reg.add("vectorized.runs_invalidated", n_runs_invalid)
        reg.add("vectorized.wall_s", perf_counter() - wall_start)
        reg.add("vectorized.probe_wall_s", probe_wall)
        reg.add("vectorized.l1_apply_wall_s", apply_wall)
