"""Vectorized replay kernel (``engine="vectorized"``).

The legacy hot loop (:func:`repro.sim.driver._replay`) pays Python call
overhead five times per reference even though most references are
pipelined L1 hits whose whole architectural effect is a handful of int
and float updates.  The paper changes only the L2: its L1 is a 2-way
LRU write-back cache above a non-inclusive hierarchy with no
back-invalidation, so every L1 hit, miss, victim and dirty writeback
depends only on the reference stream.  The kernel replays a trace
slice (:meth:`Trace.decoded_batch`) in two steps:

1. **Solve.**  :func:`repro.sim.l1solve.solve` computes the L1 exactly
   for the whole slice from the L1's current state: the miss
   positions, each miss's victim block and dirty bit, and the final
   tags, dirty bits and stamps.  The result is memoised on the decoded
   batch, keyed by the exact initial L1 state (tags, dirty bits and
   per-set recency order; the batch fixes the geometry) and bounded
   to :data:`SOLVE_MEMO_ENTRIES` entries.  A warmup slice starts from
   an empty L1 and a measured slice from the post-warmup state, so
   each slice is solved once per trace and every later config, op or
   sweep cell reuses it.
2. **Miss walk.**  One Python loop visits the L1 misses only.  Between
   misses the per-reference ``t = gap/ipc`` and ``p`` branch-penalty
   terms (precomputed vectorized; elementwise float64 ops are
   bit-identical to the scalar expressions) are folded into ``cycle``
   interleaved, as a strict left fold (``functools.reduce`` over an
   ``islice``, never ``sum()``, which compensates on Python 3.12).  At
   a miss the lower levels are walked through their own
   ``access``/``fill`` methods, the L1 writeback comes from the
   solver's victim stream, and ``note_memory_result`` and the MSHR
   allocate are inlined op by op.  ``branch_penalty_cycles`` is folded
   once, after the loop, and the L1 state is committed once, in
   ``finally``.

Bit-identity contract
---------------------

The kernel replays the exact float-op sequence of the legacy loop,
drives the lower levels through the same ``access``/``fill`` calls at
the same ``now`` values, and batches integer counters, flushed in
``finally`` so a mid-replay
:class:`~repro.faults.models.UncorrectableDataError` leaves
legacy-identical state: the L1 is re-solved up to the committed
prefix, refs ``[0, m)`` when a lower ``access`` raised on the miss at
``m`` and ``[0, m]`` when its writeback did.  ``python -m repro.bench
--engine-parity`` and ``tests/test_fastpath.py`` hold it to
byte-identical summaries and telemetry reports; perfbench measures
its speed.

Telemetry-armed runs stay on the kernel: each L1 fill emits
``eviction``, ``writeback`` (when dirty) and ``placement`` from the
victim stream in the order ``SetAssociativeCache.fill`` uses, so they
keep their place among the lower levels' events; the L1 client's
``on_access`` is replayed in reference order from the hit mask when
the kernel returns, which is exact because that client only feeds its
own counters and histograms; and the inlined MSHR allocate records the
occupancy histogram.

Systems the kernel cannot take (see :func:`supports`) never reach it:
:func:`repro.sim.driver._replay` sends them to the legacy loop.

Kernel statistics land in the process-global runtime registry
(:mod:`repro.telemetry.runtime`) under ``vectorized.*``: ``refs``
(references replayed), ``refs_vector`` (L1 hits the solve resolved),
``refs_scalar`` (misses the loop walked), ``wall_s`` (kernel wall),
``probe_wall_s`` (the solve, memo lookup included) and
``l1_apply_wall_s`` (the final L1 state commit).  They describe
execution strategy, not the simulated machine, so they stay out of run
payloads.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import add
from time import perf_counter

import numpy as np

from repro.caches.mshr import MSHREntry
from repro.sim import l1solve
from repro.telemetry.runtime import runtime_registry

#: L1 solves memoised per decoded slice (one per initial L1 state).
SOLVE_MEMO_ENTRIES = 4


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


def _solve(l1, decoded):
    """The slice's L1 solve from the live L1 state, memoised on the
    decoded batch (whose geometry is the L1's) per initial state."""
    state = l1solve.cache_state(l1)
    key = l1solve.state_key(*state)
    memo = decoded.l1_solves
    result = memo.get(key)
    if result is None:
        result = l1solve.solve(
            decoded.sets, decoded.block_addrs, decoded.writes, l1.n_sets, state
        )
        if len(memo) >= SOLVE_MEMO_ENTRIES:
            del memo[next(iter(memo))]
        memo[key] = result
    return state, result


def replay(system, core, trace) -> None:
    """Replay ``trace``: solve the L1 exactly, then walk its misses.

    Callers check :func:`supports` first.
    """
    wall_start = perf_counter()
    l1 = system.l1d
    params = core.params
    hierarchy = system.hierarchy
    memory = system.memory
    lower = hierarchy.lower
    decoded = trace.decoded_batch(l1.spec.block_bytes, l1.n_sets)
    n_total = len(decoded)

    t_solve = perf_counter()
    state, solved = _solve(l1, decoded)
    solve_wall = perf_counter() - t_solve
    clock0 = l1._clock
    miss_pos = solved.miss_pos
    misses = zip(
        miss_pos.tolist(),
        decoded.addresses[miss_pos].tolist(),
        decoded.block_addrs[miss_pos].tolist(),
        solved.victim.tolist(),
        solved.victim_dirty.tolist(),
    )
    l1_lat = l1.spec.latency_cycles
    l1_name = l1.name
    l1_energy = l1.energy
    l1_telem = l1.telemetry

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
    # p = ((gap*bf)*mr)*mp in the same association order.  The cycle
    # folds them interleaved, [t0, p0, t1, p1, ...], one strict left
    # fold per stretch between misses.
    g_np = decoded.gaps
    p_np = ((g_np * bf) * mr) * mp
    z_np = np.empty(2 * n_total, dtype=np.float64)
    np.divide(g_np, ipc, out=z_np[0::2])
    z_np[1::2] = p_np
    z_terms = iter(z_np.tolist())

    # Miss-path plumbing.
    stats = hierarchy.stats
    hist = hierarchy.miss_latency_hist
    first = lower[0]
    mem_lat = memory.transfer_cycles(lower[-1].block_bytes)
    lvl_names = [level.name for level in lower]
    n_lower = len(lower)

    # Batched integer counters (exact; flushed in finally).  gi counts
    # the references whose L1 access happened (the legacy loop makes a
    # miss's L1 access before the lower-level access that can raise);
    # l1_done those whose L1 effects are final, which leaves out an
    # interrupted miss whose fill never happened; noted those whose
    # note_memory_result ran, which leaves out any interrupted miss.
    gi = 0
    l1_done = 0
    noted = 0
    n_misses = 0
    n_l1_wb = n_l1_wb_mem = 0
    n_mem_reads = n_mem_writes = 0
    lvl_acc = [0] * n_lower
    lvl_hits = [0] * n_lower
    lvl_wb = [0] * n_lower

    try:
        for pos, address, baddr, vaddr, vdirty in misses:
            # The hits since the last miss, then this reference's own
            # advance: cycle += t; cycle += p per reference.
            cycle = reduce(add, islice(z_terms, 2 * (pos - gi) + 2), cycle)
            gi = pos + 1
            l1_done = noted = pos
            n_misses += 1

            # CacheHierarchy._access below the L1, inlined.
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

            # The L1 fill, as solved: its state lands in finally.
            l1_done = gi
            if l1_telem is not None:
                # SetAssociativeCache.fill's events, in its order.
                if vaddr >= 0:
                    l1_telem.event("eviction", addr=vaddr)
                    if vdirty:
                        l1_telem.event("writeback", addr=vaddr)
                l1_telem.event("placement", addr=baddr)
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
        cycle = reduce(add, z_terms, cycle)
        gi = l1_done = noted = n_total
    finally:
        # Commit batched state.  Runs on an UncorrectableDataError from
        # a lower level too, leaving legacy-identical state: the L1 is
        # re-solved up to the interrupted miss (through it when only
        # its writeback raised).
        t_commit = perf_counter()
        if l1_done < n_total:
            solved = l1solve.solve(
                decoded.sets[:l1_done],
                decoded.block_addrs[:l1_done],
                decoded.writes[:l1_done],
                l1.n_sets,
                state,
            )
        l1solve.commit(l1, solved, clock0, l1_done)
        commit_wall = perf_counter() - t_commit
        n_refs = gi
        n_writes = int(decoded.writes[:gi].sum())
        n_reads = gi - n_writes
        n_hits = gi - n_misses
        # Every walked miss filled, less one interrupted before its fill.
        n_fills = n_misses - (gi - l1_done)
        if gi:
            instructions += int(g_np[:gi].sum())
            # branch_penalty_cycles += p per reference: accumulate is a
            # strict left fold, the same float-op sequence.
            bp_fold = np.empty(gi + 1, dtype=np.float64)
            bp_fold[0] = bp
            bp_fold[1:] = p_np[:gi]
            bp = float(np.add.accumulate(bp_fold, out=bp_fold)[gi])
        l1.hits += n_hits
        l1.misses += n_misses
        l1.writebacks += n_l1_wb
        if l1_telem is not None:
            # The L1 client's per-access hook, in reference order.  It
            # feeds only the client's own counters and histograms, so
            # replaying it after the loop is exact.
            on_access = l1_telem.on_access
            l1_lat_f = float(l1_lat)
            hit = np.ones(n_refs, dtype=bool)
            hit[miss_pos[:n_misses]] = False
            for baddr, h in zip(
                decoded.block_addrs[:n_refs].tolist(), hit.tolist()
            ):
                on_access(baddr, h, None, l1_lat_f)
        if n_reads:
            l1_energy.charge(f"{l1_name}.read", n_reads)
        if n_writes or n_fills:
            l1_energy.charge(f"{l1_name}.write", n_writes + n_fills)
        core.commit_batch(
            cycle=cycle,
            instructions=instructions,
            memory_accesses=memory_accesses + noted,
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
        reg.add("vectorized.refs", n_refs)
        reg.add("vectorized.refs_vector", n_hits)
        reg.add("vectorized.refs_scalar", n_misses)
        reg.add("vectorized.wall_s", perf_counter() - wall_start)
        reg.add("vectorized.probe_wall_s", solve_wall)
        reg.add("vectorized.l1_apply_wall_s", commit_wall)
