"""Vectorized replay kernel (``engine="vectorized"``).

The legacy hot loop (:func:`repro.sim.driver._replay`) pays Python call
overhead five times per reference even though most references are
pipelined L1 hits whose whole architectural effect is a handful of int
and float updates.  The paper changes only the L2: its L1 is a 2-way
LRU write-back cache above a non-inclusive hierarchy with no
back-invalidation, so every L1 hit, miss, victim and dirty writeback
depends only on the reference stream.  And a lower level's decisions
depend only on the order of its operations, never on their times
(DESIGN.md, "Lower-level outcome and timing").  The same holds per
core on a CMP: each core's L1 is private, with no coherence or
back-invalidation, so its outcomes depend only on its own sub-stream.
The kernel replays a trace slice (:meth:`Trace.decoded_batch`) issued
by one core or interleaved from several -- a plain trace either way,
each record's core in its address bits -- in three steps:

1. **Solve.**  :func:`repro.sim.l1solve.solve` computes each core's L1
   exactly for its sub-stream of the slice (a one-core slice is its
   own sub-stream; a CMP core's is :meth:`Trace.by_core`'s, memoised
   on the slice like its decode) from the L1's current state: the miss
   positions, each miss's victim block and dirty bit, and the final
   tags, dirty bits and stamps.  The result is memoised on the decoded
   batch, keyed by the exact initial L1 state (tags, dirty bits and
   per-set recency order; the batch fixes the geometry) and bounded
   to :data:`SOLVE_MEMO_ENTRIES` entries.  A warmup slice starts from
   an empty L1 and a measured slice from the post-warmup state, so
   each slice is solved once per trace and every later config, op or
   sweep cell reuses it.
2. **Outcome pass.**  One loop over every core's misses, merged in
   trace order, runs the shared lower levels' timing-free outcome
   steps (``access_outcome``/``fill_outcome``) over the whole
   lower-level stream the solves fix -- per miss its accesses down to
   the supplying level, the fills of the levels it missed (bottom-most
   first), the L1's dirty-victim writeback, then the prefetch fills
   the miss triggers when the hierarchy carries a prefetcher -- and
   records one outcome tuple per operation.  Every state, RNG, fault
   and counter change happens here.  The prefetcher's demand credits
   are batched per stretch between two misses (no prefetch issues
   inside one), so a credit that lands on an L1 hit is kept.  When the
   lower levels are one level whose class defines ``solve_outcomes``
   (D-NUCA), with no prefetcher and no telemetry client, that method
   returns the same tuples without the walk: an operation there reads
   and writes only its own set, so round ``k`` applies every set's
   ``k``-th operation at once, and its stamps and clock are rebuilt
   from a cumulative count of clock bumps once the rounds fix which
   demands filled.  The class is asked, not the instance, because
   :class:`~repro.cmp.contention.ContendedLLC` forwards unknown
   attributes to the cache it wraps.  Everything else walks: ``legacy``
   (whose ``access``/``fill`` run the same outcome steps, one at a
   time), telemetry-armed slices, contended levels, the base L2+L3,
   NuRAPID and S-NUCA.
3. **Timing fold.**  One loop walks the merged misses in runs of
   consecutive misses from one core; each run loads that core's
   cycle, term stream, MSHR entries, counters and histograms and saves
   them back, and a one-core slice is a single run.  Per miss it
   folds the per-reference ``t = gap/ipc`` and ``p`` branch-penalty
   terms (precomputed vectorized; elementwise float64 ops are
   bit-identical to the scalar expressions) of the stretch since the
   core's last miss into ``cycle`` interleaved, as a strict left fold
   (:func:`fold_terms`; never ``sum()``, which compensates on Python
   3.12).  A stretch of more than :data:`FOLD_NUMPY_TERMS` terms --
   the long runs of L1 hits of a low-load trace -- is one
   ``np.add.accumulate`` over ``[cycle, terms...]``; a shorter one is
   ``functools.reduce`` over Python floats, which :func:`short_terms`
   makes once per slice for the short stretches only.  At a miss it
   hands each outcome to its level's ``access_timing``/``fill_timing``
   at the legacy loop's ``now`` on the issuing core's clock (prefetch
   fills at the miss's own ``now``), adds memory, and inlines
   ``note_memory_result`` and the MSHR allocate op by op.  It builds
   no ``AccessResult``, bumps no dict counter and makes no checked
   port request.  ``branch_penalty_cycles`` is folded once, after the
   loop, and the L1 state is committed once, in ``finally``.

Bit-identity contract
---------------------

The kernel replays the exact float-op sequence of the legacy loop,
``np.add.accumulate`` included: it adds each element to the running
sum in order (numpy sums pairwise only in ``add.reduce``), so every
partial sum rounds as the legacy loop's ``cycle +=`` does.  It
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
``SetAssociativeCache.fill_outcome`` records, so they keep their place among the
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
``probe_wall_s`` (the L1 solves and their memo lookups),
``outcome_wall_s`` (the outcome pass), ``fold_wall_s`` (the timing
fold) and ``l1_apply_wall_s`` (the final L1 state commit).  They
describe execution strategy, not the simulated machine, so they stay
out of run payloads.
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

#: A stretch of more cycle terms than this folds through numpy; a
#: shorter one folds over Python floats, where one numpy call costs
#: more.  Measured on perfbench's replay cells (2-vCPU x86, Python
#: 3.11): the timing fold is flat from 32 to 64 on gcc/mesa and mcf,
#: slower on mcf at 16 and on gcc/mesa from 96.
FOLD_NUMPY_TERMS = 48


def short_terms(z, miss_pos):
    """The terms of ``z`` that :func:`fold_terms` takes from its Python
    stream: those of every stretch of at most :data:`FOLD_NUMPY_TERMS`
    terms, in order, where the misses at ``miss_pos`` (sorted
    reference positions) end the stretches and the last one ends at
    the end of ``z``."""
    ends = np.empty(len(miss_pos) + 1, dtype=np.int64)
    ends[:-1] = 2 * np.asarray(miss_pos, dtype=np.int64) + 2
    ends[-1] = len(z)
    lengths = np.diff(ends, prepend=0)
    return z[np.repeat(lengths <= FOLD_NUMPY_TERMS, lengths)].tolist()


def fold_terms(cycle, z, short, a, b):
    """``cycle + z[a] + ... + z[b-1]``, added left to right: bit for bit
    ``reduce(add, z[a:b].tolist(), cycle)``.  ``np.add.accumulate`` is
    a strict left fold too, so a long stretch takes one numpy call; a
    short one takes its terms, as floats, from the ``short`` iterator
    over :func:`short_terms`."""
    if b - a > FOLD_NUMPY_TERMS:
        acc = np.empty(b - a + 1)
        acc[0] = cycle
        acc[1:] = z[a:b]
        return np.add.accumulate(acc, out=acc).item(b - a)
    return reduce(add, islice(short, b - a), cycle)


def supports(system) -> bool:
    """Whether the kernel can replay on ``system`` bit-identically: it
    needs a 2-way L1 without a fault injector."""
    l1 = system.l1d
    return l1.fault_injector is None and getattr(l1, "_assoc", None) == 2


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


class _CoreFold:
    """One core's part of a replay: its sub-stream's L1 solve, and the
    state its timing fold carries from one run of misses to the next.

    ``refs`` holds what the fold mutates in place or only reads;
    ``books`` the scalars it rebinds, saved at the end of every run.
    """

    def __init__(self, system, core, trace, at, n_lower: int) -> None:
        self.system = system
        self.core = core
        #: Positions of the core's records in the merged trace (None:
        #: a one-core trace, whose positions are its own).
        self.at = at
        l1 = self.l1 = system.l1d
        decoded = self.decoded = trace.decoded_batch(l1.spec.block_bytes, l1.n_sets)
        self.n_total = len(decoded)
        t_solve = perf_counter()
        self.state, solved = _solve(l1, decoded)
        self.solve_wall = perf_counter() - t_solve
        self.solved = solved
        self.clock0 = l1._clock
        self.miss_pos = solved.miss_pos.tolist()
        self.victims = solved.victim.tolist()
        self.victim_dirty = solved.victim_dirty.tolist()

        # Per-reference float terms, precomputed vectorized.  Elementwise
        # float64 ops equal the scalar expressions bit for bit (gaps are
        # small ints, exactly representable): t = gap/ipc and
        # p = ((gap*bf)*mr)*mp in the same association order.  The cycle
        # folds them interleaved, [t0, p0, t1, p1, ...], one strict left
        # fold (fold_terms) per stretch between misses.
        g_np = decoded.gaps
        self.p_np = ((g_np * core.branch_fraction) * core.mispredict_rate) * (
            core.params.mispredict_penalty
        )
        z = np.empty(2 * self.n_total, dtype=np.float64)
        np.divide(g_np, core.core_ipc, out=z[0::2])
        z[1::2] = self.p_np

        # MSHR state, fully inlined: the entries are fold-local
        # [issued_at, fill_at, merged] lists in the MSHR file's order,
        # written back as MSHREntry objects on commit.  allocate's
        # precondition checks (not full, no duplicate, fill_at >= now)
        # are guaranteed by the fold's own control flow and CoreModel's
        # exposure-in-[0, 1] validation.
        mshr = core.mshrs
        mshr_entries = {
            a: [e.issued_at, e.fill_at, e.merged] for a, e in mshr._entries.items()
        }
        self.refs = (
            z,
            iter(short_terms(z, solved.miss_pos)),
            zip(
                self.miss_pos,
                decoded.block_addrs[solved.miss_pos].tolist(),
                self.victims,
                self.victim_dirty,
            ),
            l1.telemetry,
            [0] * n_lower,  # accesses per lower level
            [0] * n_lower,  # hits per lower level
            [0] * n_lower,  # fill writebacks per lower level
            system.hierarchy.miss_latency_hist,
            mshr_entries,
            mshr.occupancy_hist,
            core.exposure,
        )
        # cycle, then the reference counts gi, l1_done and noted (see
        # replay), L1 writebacks, those that went on to memory, memory
        # reads, the MSHR file's earliest fill and its primary, merged
        # and full-stall counts, and the stall and MSHR-stall cycles.
        self.books = (
            core.cycle, 0, 0, 0, 0, 0, 0, mshr._min_fill, 0, 0, 0,
            core.stall_cycles, core.mshr_stall_cycles,
        )

    def finish(self) -> None:
        """Fold the hits after the core's last miss into its cycle."""
        z, short = self.refs[:2]
        books = self.books
        n = self.n_total
        cycle = fold_terms(books[0], z, short, 2 * books[1], 2 * n)
        self.books = (cycle, n, n, n) + books[4:]

    def commit(self, lvl_names):
        """Install the batched state in the core, its L1, its hierarchy
        books and its MSHR file, as far as the fold got.  Returns the
        references replayed, the L1 hits and misses among them, and the
        memory reads the core's misses made.

        After a mid-replay UncorrectableDataError this leaves
        legacy-identical state: the L1 is re-solved up to the
        interrupted miss (through it when only its writeback raised).
        """
        (
            cycle, gi, l1_done, noted, n_l1_wb, n_l1_wb_mem, n_mem_reads,
            min_fill, n_primary, n_merged, n_full, stall, mshr_stall,
        ) = self.books
        (_, _, _, l1_telem, lvl_acc, lvl_hits, lvl_wb, _, mshr_entries, _, _) = (
            self.refs
        )
        l1 = self.l1
        core = self.core
        decoded = self.decoded
        solved = self.solved
        t_apply = perf_counter()
        if l1_done < self.n_total:
            solved = l1solve.solve(
                decoded.sets[:l1_done],
                decoded.block_addrs[:l1_done],
                decoded.writes[:l1_done],
                l1.n_sets,
                self.state,
            )
        l1solve.commit(l1, solved, self.clock0, l1_done)
        self.apply_wall = perf_counter() - t_apply
        # gi counts the references whose L1 access happened (a miss's L1
        # access precedes the lower-level access that can raise);
        # l1_done those whose L1 effects are final, which leaves out an
        # interrupted miss whose fill never happened; noted those whose
        # note_memory_result ran, which leaves out any interrupted miss.
        n_refs = gi
        n_misses = int(np.searchsorted(self.solved.miss_pos, gi))
        n_writes = int(decoded.writes[:gi].sum())
        n_reads = gi - n_writes
        n_hits = gi - n_misses
        # Every walked miss filled, less one interrupted before its fill.
        n_fills = n_misses - (gi - l1_done)
        instructions = core.instructions
        bp = core.branch_penalty_cycles
        if gi:
            instructions += int(decoded.gaps[:gi].sum())
            # branch_penalty_cycles += p per reference: accumulate is a
            # strict left fold, the same float-op sequence.
            bp_fold = np.empty(gi + 1, dtype=np.float64)
            bp_fold[0] = bp
            bp_fold[1:] = self.p_np[:gi]
            bp = float(np.add.accumulate(bp_fold, out=bp_fold)[gi])
        l1.hits += n_hits
        l1.misses += n_misses
        l1.writebacks += n_l1_wb
        if l1_telem is not None:
            # The L1 client's per-access hook, in reference order.  It
            # feeds only the client's own counters and histograms, so
            # replaying it after the loop is exact.
            on_access = l1_telem.on_access
            l1_lat_f = float(l1.spec.latency_cycles)
            hit = np.ones(n_refs, dtype=bool)
            hit[self.solved.miss_pos[:n_misses]] = False
            for baddr, h in zip(decoded.block_addrs[:n_refs].tolist(), hit.tolist()):
                on_access(baddr, h, None, l1_lat_f)
        if n_reads:
            l1.energy.charge(f"{l1.name}.read", n_reads)
        if n_writes or n_fills:
            l1.energy.charge(f"{l1.name}.write", n_writes + n_fills)
        core.commit_batch(
            cycle=cycle,
            instructions=instructions,
            memory_accesses=core.memory_accesses + noted,
            branch_penalty_cycles=bp,
            stall_cycles=stall,
            mshr_stall_cycles=mshr_stall,
        )
        stats = self.system.hierarchy.stats
        if n_refs:
            stats.add("l1_accesses", n_refs)
        if n_hits:
            stats.add("l1_hits", n_hits)
        for i, name in enumerate(lvl_names):
            if lvl_acc[i]:
                stats.add(name + "_accesses", lvl_acc[i])
            if lvl_hits[i]:
                stats.add(name + "_hits", lvl_hits[i])
            if lvl_wb[i]:
                stats.add(name + "_writebacks", lvl_wb[i])
        if n_l1_wb:
            stats.add("l1_writebacks", n_l1_wb)
        if n_l1_wb_mem:
            stats.add("l1_writebacks_to_memory", n_l1_wb_mem)
        if n_mem_reads:
            stats.add("memory_reads", n_mem_reads)
        mshr = core.mshrs
        live = mshr._entries
        live.clear()
        for a, (issued_at, fill_at, merged) in mshr_entries.items():
            live[a] = MSHREntry(a, issued_at, fill_at, merged)
        mshr._min_fill = min_fill
        mshr.primary_misses += n_primary
        mshr.merged_misses += n_merged
        mshr.full_stalls += n_full
        return n_refs, n_hits, n_misses, n_mem_reads


def replay(systems, cores, trace, streams=None) -> None:
    """Replay ``trace`` on ``cores`` over ``systems``.  ``streams`` is
    each core's ``(positions, sub-stream)`` of a multi-core trace
    (:meth:`Trace.by_core`); None is a one-core trace, its own
    sub-stream.  Solve each core's L1 on its own sub-stream, then walk
    the merged misses.  Callers check :func:`supports` first.
    """
    wall_start = perf_counter()
    hierarchy = systems[0].hierarchy
    memory = systems[0].memory
    lower = hierarchy.lower
    # CMP systems carry none: SystemConfig rejects prefetch with cores > 1.
    prefetcher = hierarchy.prefetcher
    n_lower = len(lower)

    if streams is None:
        folds = [_CoreFold(systems[0], cores[0], trace, None, n_lower)]
    else:
        folds = [
            _CoreFold(system, core, sub, at, n_lower)
            for system, core, (at, sub) in zip(systems, cores, streams)
            if len(at)
        ]

    # The misses of every core in trace order, and the runs of
    # consecutive misses from one core that the fold walks.
    if len(folds) == 1:
        (fold,) = folds
        miss_at = fold.solved.miss_pos
        victims = fold.solved.victim
        victim_dirty = fold.solved.victim_dirty
        runs = [(fold, len(miss_at))]
    else:
        at = np.concatenate([f.at[f.solved.miss_pos] for f in folds])
        order = np.argsort(at, kind="stable")
        miss_at = at[order]
        victims = np.concatenate([f.solved.victim for f in folds])[order]
        victim_dirty = np.concatenate([f.solved.victim_dirty for f in folds])[order]
        owner = np.repeat(
            np.arange(len(folds)), [len(f.miss_pos) for f in folds]
        )[order]
        edges = [0, *(np.flatnonzero(np.diff(owner)) + 1).tolist(), len(owner)]
        runs = [
            (folds[owner[a]], b - a) for a, b in zip(edges, edges[1:]) if b > a
        ]
    addresses = np.asarray(trace.addresses, dtype=np.int64)
    miss_addrs = addresses[miss_at]

    # Miss-path plumbing, shared by every core.
    l1_lat = folds[0].l1.spec.latency_cycles
    mlp_discount = folds[0].core.params.memory_mlp_discount
    mshr_cap = folds[0].core.mshrs.capacity
    INF = float("inf")
    mem_lat = memory.transfer_cycles(lower[-1].block_bytes)
    lvl_names = [level.name for level in lower]
    access_outcome = [level.access_outcome for level in lower]
    fill_outcome = [level.fill_outcome for level in lower]
    access_timing = [level.access_timing for level in lower]
    fill_timing = [level.fill_timing for level in lower]
    first_outcome = access_outcome[0]
    first_timing = access_timing[0]
    first_fill_timing = fill_timing[0]
    for fold in folds:
        check_timestamp(lvl_names[0], fold.core.cycle)
    t_outcomes = perf_counter()

    # Pass 1, outcomes: every lower-level operation of the slice in
    # legacy order -- per miss its accesses down to the supplier, the
    # fills bottom-most first, the L1's dirty-victim writeback, then
    # the prefetch fills the miss triggers -- at no time.  A lone
    # level whose class solves a whole slice at once (D-NUCA) does so
    # when no prefetcher and no telemetry client take part; otherwise
    # the operations are walked one by one.  The prefetcher is
    # credited for each stretch of demands between two misses at once
    # (no prefetch issues inside one).  A DUE stops the walk; the fold
    # below then times the completed operations and re-raises it.
    # The class, not the instance: ContendedLLC forwards unknown
    # attributes to the cache it wraps, whose tuples it extends.
    solve = getattr(type(lower[0]), "solve_outcomes", None)
    if solve is not None and (
        n_lower > 1 or prefetcher is not None or lower[0].telemetry is not None
    ):
        solve = None
    pf_counts = None
    error = None
    if solve is not None:
        outcomes = solve(lower[0], miss_addrs, victims, victim_dirty)
    else:
        outcomes = []
        record = outcomes.append
        if prefetcher is not None:
            pf_counts = []
            pf_blocks = (addresses & ~np.int64(prefetcher.block_bytes - 1)).tolist()
            note_demands = prefetcher.note_demands
            observe_miss = prefetcher.observe_miss
            note_issued = prefetcher.note_issued
            first_contains = lower[0].contains
            first_fill = fill_outcome[0]
            demanded = 0
        try:
            for pos, address, vaddr, vdirty in zip(
                miss_at.tolist(), miss_addrs.tolist(), victims.tolist(),
                victim_dirty.tolist(),
            ):
                if pf_counts is not None:
                    note_demands(pf_blocks[demanded : pos + 1])
                    demanded = pos + 1
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
                if pf_counts is not None:
                    issued = 0
                    for target in observe_miss(address):
                        if not first_contains(target):
                            record(first_fill(target, False))
                            note_issued(target)
                            issued += 1
                    pf_counts.append(issued)
            if pf_counts is not None:
                note_demands(pf_blocks[demanded:])
        except UncorrectableDataError as exc:
            error = exc
    outcome_wall = perf_counter() - t_outcomes

    # Pass 2, the timing fold: per miss, each level's timing step at
    # the legacy ``now`` on the issuing core's clock, memory, the L1's
    # writeback, the prefetch fills, the MSHR and the core cycle.  Each
    # run of one core's misses loads that core's state and saves it
    # back; a one-core slice is a single run.  The fold runs out of
    # outcomes exactly where pass 1 stopped.
    t_fold = perf_counter()
    n_mem_writes = 0
    next_outcome = iter(outcomes).__next__
    next_issued = None if pf_counts is None else iter(pf_counts).__next__
    try:
        for fold, k in runs:
            (
                z, short, misses, l1_telem, lvl_acc, lvl_hits, lvl_wb, hist,
                mshr_entries, occ_hist, exposure,
            ) = fold.refs
            (
                cycle, gi, l1_done, noted, n_l1_wb, n_l1_wb_mem, n_mem_reads,
                min_fill, n_primary, n_merged, n_full, stall, mshr_stall,
            ) = fold.books
            try:
                for pos, baddr, vaddr, vdirty in islice(misses, k):
                    # The hits since the core's last miss, then this
                    # reference's own advance: cycle += t; cycle += p
                    # per reference.
                    cycle = fold_terms(cycle, z, short, 2 * gi, 2 * pos + 2)
                    gi = pos + 1
                    l1_done = noted = pos

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

                    # The L1 fill, as solved: its state lands on commit.
                    l1_done = gi
                    if l1_telem is not None:
                        # SetAssociativeCache.fill_outcome's events, in its order.
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
                    if next_issued is not None:
                        # _prefetch's fills, at the miss's now.
                        for _ in range(next_issued()):
                            o = next_outcome()
                            if o[1] is not None:
                                first_fill_timing(o, cycle)
                            if o[0]:
                                n_mem_writes += o[0]
                                lvl_wb[0] += o[0]
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
            finally:
                fold.books = (
                    cycle, gi, l1_done, noted, n_l1_wb, n_l1_wb_mem, n_mem_reads,
                    min_fill, n_primary, n_merged, n_full, stall, mshr_stall,
                )
        for fold in folds:
            fold.finish()
    except StopIteration:
        # Pass 1 stopped on this miss: every operation before the one
        # that raised is timed, so the state is the legacy loop's at
        # its raise.
        error.emit_deferred()
        raise error from None
    finally:
        fold_wall = perf_counter() - t_fold
        # Commit the batched state, on an UncorrectableDataError too.
        n_refs = n_hits = n_misses = n_mem_reads = 0
        apply_wall = solve_wall = 0.0
        for fold in folds:
            refs, hits, misses, reads = fold.commit(lvl_names)
            n_refs += refs
            n_hits += hits
            n_misses += misses
            n_mem_reads += reads
            apply_wall += fold.apply_wall
            solve_wall += fold.solve_wall
        memory.reads += n_mem_reads
        memory.writes += n_mem_writes
        reg = runtime_registry()
        reg.add("vectorized.refs", n_refs)
        reg.add("vectorized.refs_vector", n_hits)
        reg.add("vectorized.refs_scalar", n_misses)
        reg.add("vectorized.wall_s", perf_counter() - wall_start)
        reg.add("vectorized.probe_wall_s", solve_wall)
        reg.add("vectorized.outcome_wall_s", outcome_wall)
        reg.add("vectorized.fold_wall_s", fold_wall)
        reg.add("vectorized.l1_apply_wall_s", apply_wall)
