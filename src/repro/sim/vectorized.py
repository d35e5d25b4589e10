"""Vectorized replay kernel (``engine="vectorized"``).

The legacy hot loop (:func:`repro.sim.driver._replay`) pays Python call
overhead five times per reference even though most references are
pipelined L1 hits whose whole architectural effect is a handful of int
and float updates.  The paper changes only the L2: its L1 is a 2-way
LRU write-back cache above a non-inclusive hierarchy with no
back-invalidation, so every L1 hit, miss, victim and dirty writeback
depends only on the reference stream.  And a lower level's decisions
depend only on the order of its operations, never on their times
(DESIGN.md, "Lower-level outcome and timing").  The kernel replays a
trace slice (:meth:`Trace.decoded_batch`) in three steps:

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
2. **Outcome pass.**  One loop over the misses runs the lower levels'
   timing-free outcome steps (``access_outcome``/``fill_outcome``)
   over the whole lower-level stream the solve fixes -- per miss its
   accesses down to the supplying level, the fills of the levels it
   missed (bottom-most first), then the L1's dirty-victim writeback --
   and records one outcome tuple per operation.  Every state, RNG,
   fault and counter change happens here.
3. **Timing fold.**  One loop per miss folds the per-reference
   ``t = gap/ipc`` and ``p`` branch-penalty terms (precomputed
   vectorized; elementwise float64 ops are bit-identical to the
   scalar expressions) into ``cycle`` interleaved, as a strict left
   fold (``functools.reduce`` over an ``islice``, never ``sum()``,
   which compensates on Python 3.12).  At a miss it hands each
   outcome to its level's ``access_timing``/``fill_timing`` at the
   legacy loop's ``now``, adds memory, and inlines
   ``note_memory_result`` and the MSHR allocate op by op.  It builds no
   ``AccessResult``, bumps no dict counter and makes no checked port
   request.  ``branch_penalty_cycles`` is folded once, after the loop,
   and the L1 state is committed once, in ``finally``.

Bit-identity contract
---------------------

The kernel replays the exact float-op sequence of the legacy loop,
drives the lower levels through the same outcome and timing steps
their ``access``/``fill`` run, at the same ``now`` values, and batches
integer counters, flushed in ``finally``.  A mid-replay
:class:`~repro.faults.models.UncorrectableDataError` stops the outcome
pass; the fold then times every operation that completed before it,
runs out of outcomes exactly there, emits the events the interrupted
step had deferred and re-raises, which leaves legacy-identical state:
the L1 is re-solved up to the committed prefix, refs ``[0, m)`` when a
lower access raised on the miss at ``m`` and ``[0, m]`` when its
writeback did.  ``python -m repro.bench --engine-parity`` and
``tests/test_fastpath.py`` hold it to byte-identical summaries,
telemetry reports and port and bank totals; perfbench measures its
speed.

Telemetry-armed runs stay on the kernel: the lower levels' outcome
steps defer their events to their timing steps, which stamp them with
the cycle; each L1 fill emits ``eviction``, ``writeback`` (when dirty)
and ``placement`` from the victim stream in the order
``SetAssociativeCache.fill`` uses, so they keep their place among the
lower levels' events; the L1 client's ``on_access`` is replayed in
reference order from the hit mask when the kernel returns, which is
exact because that client only feeds its own counters and histograms;
and the inlined MSHR allocate records the occupancy histogram.

Systems the kernel cannot take (see :func:`supports`) never reach it:
:func:`repro.sim.driver._replay` sends them to the legacy loop.

Kernel statistics land in the process-global runtime registry
(:mod:`repro.telemetry.runtime`) under ``vectorized.*``: ``refs``
(references replayed), ``refs_vector`` (L1 hits the solve resolved),
``refs_scalar`` (misses the loop walked), ``wall_s`` (kernel wall),
``probe_wall_s`` (the solve, memo lookup included),
``outcome_wall_s`` (the outcome pass) and ``l1_apply_wall_s`` (the
final L1 state commit).  They describe execution strategy, not the
simulated machine, so they stay out of run payloads.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import add
from time import perf_counter

import numpy as np

from repro.caches.mshr import MSHREntry
from repro.caches.port import check_timestamp
from repro.common.errors import UncorrectableDataError
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
    miss_addrs = decoded.addresses[miss_pos].tolist()
    misses = zip(
        miss_pos.tolist(),
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
    # MSHR state, fully inlined: the entries are kernel-local
    # [issued_at, fill_at, merged] lists in the MSHR file's order,
    # written back as MSHREntry objects in finally; min_fill and the
    # three counters are kernel-local too.  allocate's precondition
    # checks (not full, no duplicate, fill_at >= now) are guaranteed
    # by the kernel's own control flow and CoreModel's
    # exposure-in-[0, 1] validation.
    mshr = core.mshrs
    mshr_entries = {
        a: [e.issued_at, e.fill_at, e.merged] for a, e in mshr._entries.items()
    }
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
    mem_lat = memory.transfer_cycles(lower[-1].block_bytes)
    lvl_names = [level.name for level in lower]
    n_lower = len(lower)
    access_outcome = [level.access_outcome for level in lower]
    fill_outcome = [level.fill_outcome for level in lower]
    access_timing = [level.access_timing for level in lower]
    fill_timing = [level.fill_timing for level in lower]
    first_outcome = access_outcome[0]
    first_timing = access_timing[0]
    check_timestamp(lvl_names[0], cycle)
    t_outcomes = perf_counter()

    # Pass 1, outcomes: every lower-level operation of the slice in
    # legacy order -- per miss its accesses down to the supplier, the
    # fills bottom-most first, then the L1's dirty-victim writeback --
    # at no time.  A DUE stops the pass; the fold below then times the
    # completed operations and re-raises it.
    outcomes = []
    record = outcomes.append
    error = None
    try:
        for address, vaddr, vdirty in zip(
            miss_addrs, solved.victim.tolist(), solved.victim_dirty.tolist()
        ):
            missed = 0
            for outcome_of in access_outcome:
                o = outcome_of(address, False)
                record(o)
                if o[0]:
                    break
                missed += 1
            while missed:
                missed -= 1
                record(fill_outcome[missed](address, False))
            if vdirty:
                record(first_outcome(vaddr, True))
    except UncorrectableDataError as exc:
        error = exc
    outcome_wall = perf_counter() - t_outcomes

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

    # Pass 2, the timing fold: per miss, each level's timing step at
    # the legacy ``now``, memory, the L1's writeback, the MSHR and the
    # core cycle.  It runs out of outcomes exactly where pass 1
    # stopped.
    next_outcome = iter(outcomes).__next__
    try:
        for pos, baddr, vaddr, vdirty in misses:
            # The hits since the last miss, then this reference's own
            # advance: cycle += t; cycle += p per reference.
            cycle = reduce(add, islice(z_terms, 2 * (pos - gi) + 2), cycle)
            gi = pos + 1
            l1_done = noted = pos
            n_misses += 1

            # CacheHierarchy._access below the L1, inlined.
            total_latency = l1_lat
            level_name = "memory"
            missed = 0
            for timing in access_timing:
                o = next_outcome()
                total_latency += timing(o, cycle + total_latency)
                lvl_acc[missed] += 1
                if o[0]:
                    lvl_hits[missed] += 1
                    level_name = lvl_names[missed]
                    break
                missed += 1
            else:
                n_mem_reads += 1
                total_latency += mem_lat

            fill_time = cycle + total_latency
            while missed:
                missed -= 1
                o = next_outcome()
                if o[1] is not None:
                    fill_timing[missed](o, fill_time)
                if o[0]:
                    n_mem_writes += o[0]
                    lvl_wb[missed] += o[0]

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
                o = next_outcome()
                first_timing(o, fill_time)
                lvl_acc[0] += 1
                if o[0]:
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
                        a for a, e in mshr_entries.items() if e[1] <= cycle
                    ]:
                        del mshr_entries[a]
                    min_fill = INF
                    for e in mshr_entries.values():
                        if e[1] < min_fill:
                            min_fill = e[1]
                if len(mshr_entries) >= mshr_cap:
                    mshr_stall += min_fill - cycle
                    cycle = min_fill
                    for a in [
                        a for a, e in mshr_entries.items() if e[1] <= cycle
                    ]:
                        del mshr_entries[a]
                    min_fill = INF
                    for e in mshr_entries.values():
                        if e[1] < min_fill:
                            min_fill = e[1]
                    n_full += 1
            exp = exposure
            if level_name == "memory":
                exp *= mlp_discount
            exposed = beyond_l1 * exp
            stall += exposed
            cycle += exposed
            fill_at = cycle + beyond_l1 * (1.0 - exposure)
            if baddr in mshr_entries:
                mshr_entries[baddr][2] += 1
                n_merged += 1
            else:
                mshr_entries[baddr] = [cycle, fill_at, 0]
                if fill_at < min_fill:
                    min_fill = fill_at
                n_primary += 1
                if occ_hist is not None:
                    occ_hist.record(len(mshr_entries))
        cycle = reduce(add, z_terms, cycle)
        gi = l1_done = noted = n_total
    except StopIteration:
        # Pass 1 stopped on this miss: every operation before the one
        # that raised is timed, so the state is the legacy loop's at
        # its raise.
        error.emit_deferred()
        raise error from None
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
        live = mshr._entries
        live.clear()
        for a, (issued_at, fill_at, merged) in mshr_entries.items():
            live[a] = MSHREntry(a, issued_at, fill_at, merged)
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
        reg.add("vectorized.outcome_wall_s", outcome_wall)
        reg.add("vectorized.l1_apply_wall_s", commit_wall)
