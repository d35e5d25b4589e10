"""Analytical fast-forward engine (``engine="approx"``).

This is the opt-in third replay tier: instead of replaying the trace
reference-by-reference through the cache models, it *computes* the run
result from reuse-distance structure, closed-form core timing, and the
same geometry (latency/energy) models the exact simulators consume.
One run costs a handful of numpy passes over the trace columns —
orders of magnitude cheaper than even the vectorized kernel — at the
price of bit identity: results match the exact engines only within the
documented tolerances (``repro.bench.APPROX_TOLERANCES``) that
``python -m repro.bench --approx-accuracy`` checks.

The model
---------

* **The L1 is exact, including writebacks.**  The 2-way LRU L1 is
  evaluated by the exact solve the vectorized kernel also uses
  (:mod:`repro.sim.l1solve`), a "collapsed recency" pass: stable-sort
  references by set, collapse consecutive same-block runs, and a block
  hits iff it matches one of its set's previous two distinct blocks.
  For true LRU with demand fills this reproduces the simulator's
  hit/miss sequence bit-for-bit (prewarmed dummies never alias real
  addresses, so cold-start behaves identically).  Victims are equally determined —
  the set's other resident block — so dirty evictions (any write since
  the victim's fill) and therefore the L1 writeback stream into the L2
  are exact too.
* **The L2 sees the exact access stream, approximate LRU.**  Demand
  misses (reads) and dirty-victim writebacks (writes) merge in program
  order and run through the same recency pass with the organization's
  geometry.  For associativity A > 2, "matches one of the last A
  distinct blocks of the set" is approximated by "matches one of the
  last A collapsed references", a strict subset of true LRU hits, so
  lower-level miss ratios are slightly *over*-estimated.
  Organization-specific replacement quirks (D-NUCA's tail-bank
  eviction, the coupled cache's slowest-group LRU, NuRAPID's distance
  replacement) are all approximated by this one LRU model.
* **The full trace feeds the model; only the measured tail counts.**
  Warmup needs no separate replay: the recency pass naturally carries
  cache state across the split point.
* **D-group placement follows each organization's policy.**  NuRAPID
  and the coupled cache place fills fastest-first and demote stale
  blocks, so a hit's d-group is modeled by the block's reuse distance:
  within the fastest group's frame count of recent traffic means
  d-group 0, and so on down the bands.  D-NUCA tail-inserts and
  promotes one bank per hit, so a hit's bank level is ``tail - (hits
  since fill)``.  S-NUCA's bank is a pure address function and is
  computed exactly.
* **Core time is closed-form.**  Pipeline and branch time are linear
  in instructions; each measured L1 miss stalls the core for
  ``exposure`` of its beyond-L1 latency (geometry hit latency per
  level, plus the 130 + 4/8B memory transfer when every level
  misses).  Port queueing and MSHR full stalls are ignored — they are
  small on these traces and the IPC tolerance absorbs them.
* **Energy is counts x the same per-operation costs** the exact
  engines charge through their EnergyBooks, with block movement
  (promotions/demotions) estimated from hit counts in slow d-groups
  and lower-level dirty evictions estimated statistically.

Telemetry and fault campaigns require per-reference simulation and are
rejected with :class:`~repro.common.errors.ConfigurationError`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.caches.memory import MainMemory
from repro.cpu.wattch import ProcessorEnergyModel
from repro.floorplan.dgroups import (
    build_dnuca_geometry,
    build_nurapid_geometry,
    build_uniform_cache_spec,
)
from repro.nuca.cache import DNUCACache
from repro.nurapid.config import PromotionPolicy
from repro.sim import l1solve
from repro.sim.results import RunResult
from repro.telemetry import runtime_registry
from repro.workloads.spec2k import BenchmarkProfile
from repro.workloads.trace import Trace

KB = 1024
MB = 1024 * 1024


# --- cached geometry (pure functions of their arguments) ---


@lru_cache(maxsize=None)
def _l1_spec():
    return build_uniform_cache_spec(
        name="L1d",
        capacity_bytes=64 * KB,
        block_bytes=32,
        associativity=2,
        latency_cycles=3,
        sequential_tag_data=False,
        energy_factor=6.4,
    )


@lru_cache(maxsize=None)
def _base_specs():
    l2 = build_uniform_cache_spec(
        name="L2", capacity_bytes=1 * MB, block_bytes=128,
        associativity=8, latency_cycles=11,
    )
    l3 = build_uniform_cache_spec(
        name="L3", capacity_bytes=8 * MB, block_bytes=128,
        associativity=8, latency_cycles=43,
    )
    return l2, l3


@lru_cache(maxsize=None)
def _nurapid_geometry(n_dgroups, capacity, block, assoc, restricted):
    return build_nurapid_geometry(
        n_dgroups=n_dgroups, capacity_bytes=capacity, block_bytes=block,
        associativity=assoc, restricted_frames=restricted,
    )


@lru_cache(maxsize=None)
def _dnuca_geometry(capacity, block, assoc, bank_bytes, chain, ss_bits):
    return build_dnuca_geometry(
        capacity_bytes=capacity, block_bytes=block, associativity=assoc,
        bank_bytes=bank_bytes, chain_length=chain, ss_partial_bits=ss_bits,
    )


# --- model primitives ---


def _recency_hits(set_idx: np.ndarray, blocks: np.ndarray, window: int) -> np.ndarray:
    """Per-access hit mask for an LRU cache, by collapsed recency.

    Exact when ``window`` equals the associativity of a 2-way cache;
    otherwise a recency *window*: a hit is declared iff the block
    matches one of its set's previous ``window`` collapsed references.
    ``window = assoc`` only under-counts true LRU hits (k references
    back means at most k-1 distinct blocks in between); the calibrated
    ``window = 2 * assoc`` tracks distinct-block distance closely
    because roughly half the collapsed references repeat resident
    blocks.
    """
    n = len(blocks)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(set_idx, kind="stable")
    s = set_idx[order]
    b = blocks[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.logical_or(b[1:] != b[:-1], s[1:] != s[:-1], out=new[1:])
    rep = np.flatnonzero(new)
    cb = b[rep]
    cs = s[rep]
    m = len(rep)
    hit_rep = np.zeros(m, dtype=bool)
    # k = 1 cannot match (consecutive duplicates were collapsed away).
    for k in range(2, window + 1):
        if k >= m:
            break
        hit_rep[k:] |= (cb[k:] == cb[:-k]) & (cs[k:] == cs[:-k])
    hits_sorted = np.ones(n, dtype=bool)
    hits_sorted[rep] = hit_rep
    hits = np.empty(n, dtype=bool)
    hits[order] = hits_sorted
    return hits


def _partial_false_hits(set_idx: np.ndarray, ptags: np.ndarray) -> np.ndarray:
    """Per-access mask: an earlier access of this set had the same partial tag.

    D-NUCA sets evict so rarely on the shipped workloads (capacity
    outruns the measured footprint; compare ``real_evictions``) that
    every block ever inserted is effectively still resident.  A miss
    whose low-order tag bits match *any* earlier same-set block is
    therefore nominated by the ss-array and turns into a false hit:
    the multicast cannot declare the miss until the worst bank
    responds.  Low tag bits are far from uniformly random on real
    address streams, so the mask is computed from the stream itself
    rather than from a ``2**-bits`` birthday estimate.  Only
    meaningful where the caller's full-tag hit mask is False; real
    hits trivially match their own partial tag and must be masked out
    by the caller.
    """
    n = len(ptags)
    if n == 0:
        return np.zeros(0, dtype=bool)
    key = (set_idx.astype(np.int64) << 32) | ptags.astype(np.int64)
    order = np.argsort(key, kind="stable")
    k = key[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(k[1:], k[:-1], out=first[1:])
    out = np.empty(n, dtype=bool)
    out[order] = ~first
    return out


def _reuse_distance(blocks: np.ndarray) -> np.ndarray:
    """Stream distance to each access's previous access of its block.

    First occurrences get a distance larger than any stream length.
    """
    n = len(blocks)
    order = np.argsort(blocks, kind="stable")
    bs = blocks[order]
    prev = np.full(n, -(1 << 40), dtype=np.int64)
    same = bs[1:] == bs[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return np.arange(n) - prev


def _hits_since_fill(blocks: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Per-access count of this block's hits since its last miss."""
    n = len(blocks)
    order = np.argsort(blocks, kind="stable")
    miss_b = ~hit[order]
    idx = np.arange(n)
    # First occurrence of a block is a miss, so the accumulate resets
    # at block boundaries.
    last_miss = np.maximum.accumulate(np.where(miss_b, idx, -1))
    since = idx - last_miss
    out = np.empty(n, dtype=np.int64)
    out[order] = since
    return out


def _dirty_fraction(w_fill: float, w_touch: float, touches_per_fill: float) -> float:
    """P(victim dirty): dirty at fill, or written during residency."""
    clean = (1.0 - w_fill) * (1.0 - w_touch) ** max(0.0, touches_per_fill)
    return min(1.0, max(0.0, 1.0 - clean))


def _arrivals(
    gaps: np.ndarray, cpi: float, exposure: float, beyond: np.ndarray
) -> np.ndarray:
    """Approximate core-cycle arrival time of each trace reference.

    The core advances ``gap * cpi`` per reference plus the exposed
    share of each L1 miss's beyond-L1 latency — the same terms the
    closed-form cycle count sums, so the timeline is consistent with
    it (minus queueing feedback, which only spreads bursts out).
    """
    adv = gaps.astype(np.float64) * cpi
    adv += exposure * beyond
    c = np.cumsum(adv)
    return c - adv


def _port_wait(t: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """Queueing wait per request on one serially-reusable port.

    The grant recursion ``start_i = max(t_i, start_{i-1} + occ_{i-1})``
    is a max-plus prefix scan: with ``c`` the exclusive cumsum of
    occupancies, ``start_i - c_i = max_{j<=i}(t_j - c_j)``.
    """
    if len(t) == 0:
        return t
    c = np.cumsum(occ) - occ
    u = np.maximum.accumulate(t - c)
    return u + c - t


def _banked_wait(
    t: np.ndarray, occ: np.ndarray, new_seg: np.ndarray
) -> np.ndarray:
    """Per-request wait when requests are partitioned into independent
    banks; ``new_seg`` marks the first request of each bank's
    (time-ordered, contiguous) segment."""
    if len(t) == 0:
        return t
    cs = np.cumsum(occ)
    excl = cs - occ
    # Within-segment exclusive cumsum: subtract the segment's start
    # value (excl is non-decreasing, so a running max propagates it).
    base = np.maximum.accumulate(np.where(new_seg, excl, -1.0))
    c = excl - base
    seg = np.cumsum(new_seg.astype(np.int64))
    big = (float(t[-1]) + float(cs[-1]) + 1.0) * seg
    u = np.maximum.accumulate(t - c + big)
    return np.maximum(u - big + c - t, 0.0)


# --- the engine ---


def estimate(
    config,
    benchmark: str,
    profile: BenchmarkProfile,
    trace: Trace,
    warmup_fraction: float,
    energy_model: Optional[ProcessorEnergyModel] = None,
) -> RunResult:
    """Compute one run result analytically (no per-reference replay)."""
    if config.faults is not None:
        raise ConfigurationError(
            "fault injection requires an exact engine (approx has no "
            "per-reference replay to inject into)"
        )
    registry = runtime_registry()
    registry.add("approx.cells")
    registry.add("approx.refs", len(trace))

    core = config.core
    l1 = _l1_spec()
    mem = MainMemory()

    addresses = np.asarray(trace.addresses, dtype=np.int64)
    gaps = np.asarray(trace.gaps, dtype=np.int64)
    writes = np.asarray(trace.writes, dtype=bool)
    n = len(addresses)
    m0 = int(n * warmup_fraction)  # same cut as Trace.split()
    n_refs = n - m0
    if n_refs <= 0:
        raise ConfigurationError("no measured references after warmup split")

    # --- L1 (exact, including the writeback stream) ---
    l1_sets = l1.capacity_bytes // l1.block_bytes // l1.associativity
    shift1 = l1.block_bytes.bit_length() - 1
    b1 = addresses & ~np.int64(l1.block_bytes - 1)
    s1 = (addresses >> shift1) & np.int64(l1_sets - 1)
    l1_solved = l1solve.solve(s1, b1, writes, l1_sets)
    pos_d = l1_solved.miss_pos
    wb_pos = pos_d[l1_solved.victim_dirty]
    wb_block = l1_solved.victim[l1_solved.victim_dirty]

    instructions = int(gaps[m0:].sum())
    n_writes = int(writes[m0:].sum())
    n_reads = n_refs - n_writes
    l1_misses = int((pos_d >= m0).sum())
    l1_hits = n_refs - l1_misses
    l1_fills = l1_misses
    n_l1_wb = int((wb_pos >= m0).sum())

    # --- the L2 stream: demand misses + writebacks, program order ---
    kind = config.l2_kind
    exposure = profile.exposure
    mlp = core.memory_mlp_discount

    if kind == "base":
        l2s, l3s = _base_specs()
        block2 = l2s.block_bytes
        sets2 = l2s.capacity_bytes // block2 // l2s.associativity
        assoc2 = l2s.associativity
        geo = None
        dc = None
    elif kind == "nurapid":
        nc = config.nurapid
        geo = _nurapid_geometry(
            nc.n_dgroups, nc.capacity_bytes, nc.block_bytes,
            nc.associativity, nc.restricted_frames,
        )
        block2, sets2, assoc2 = nc.block_bytes, geo.sets, nc.associativity
        dc = None
    elif kind == "sa-nuca":
        nc = None
        geo = _nurapid_geometry(4, 8 * MB, 128, 8, None)
        block2, sets2, assoc2 = 128, geo.sets, 8
        dc = None
    elif kind == "dnuca":
        dc = config.dnuca
        geo = _dnuca_geometry(
            dc.capacity_bytes, dc.block_bytes, dc.associativity,
            dc.bank_bytes, dc.chain_length, dc.ss_partial_bits,
        )
        block2, sets2, assoc2 = dc.block_bytes, geo.sets, dc.associativity
    else:  # s-nuca
        dc = None
        geo = _dnuca_geometry(8 * MB, 128, 16, 64 * KB, 8, 7)
        block2, sets2, assoc2 = 128, geo.sets, 16

    mask2 = ~np.int64(block2 - 1)
    shift2 = block2.bit_length() - 1
    # Merge demand reads and writeback writes in program order; the
    # writeback of a fill follows the demand access of the same ref.
    key_pos = np.concatenate([pos_d, wb_pos])
    key_wb = np.concatenate(
        [np.zeros(len(pos_d), np.int8), np.ones(len(wb_pos), np.int8)]
    )
    ordm = np.lexsort((key_wb, key_pos))
    pos2 = key_pos[ordm]
    wbf = key_wb[ordm].astype(bool)
    b2 = np.concatenate([b1[pos_d], wb_block])[ordm] & mask2
    s2 = (b2 >> shift2) & np.int64(sets2 - 1)

    hit2 = _recency_hits(s2, b2, 2 * assoc2)
    meas = pos2 >= m0
    demand = ~wbf
    mdem = meas & demand
    mdem_hit = mdem & hit2
    mdem_miss = mdem & ~hit2
    l2_demand = int(mdem.sum())
    l2_demand_hits = int(mdem_hit.sum())
    l2_demand_misses = l2_demand - l2_demand_hits
    wb2_hits = int((meas & wbf & hit2).sum())
    l2_accesses = l2_demand + n_l1_wb
    l2_hits_total = l2_demand_hits + wb2_hits
    fills2 = l2_demand_misses
    mem_cycles = float(mem.transfer_cycles(block2))

    # Dirty evictions out of the L2 (estimated; feeds L3/memory writes
    # and eviction-read energy only).  Prewarmed/underfilled caches
    # evict clean dummies until distinct traffic exceeds the frame
    # count, so real dirty evictions only appear past that point.
    distinct2 = len(np.unique(b2))
    real_evictions = min(fills2, max(0, distinct2 - sets2 * assoc2))
    p2 = _dirty_fraction(0.0, n_l1_wb / max(1, l2_accesses), 1.0)
    l2_writebacks = int(round(p2 * real_evictions))

    dgroup_fractions: Dict[int, float] = {}
    lower_energy = 0.0
    stall = 0.0
    # Per-instruction cycle cost for the arrival timeline.
    cpi = (
        1.0 / profile.core_ipc
        + profile.branch_fraction * profile.mispredict_rate * core.mispredict_penalty
    )

    if kind == "base":
        # L3 sees the L2's demand misses (writeback misses do not
        # allocate; they go to memory).
        pos3 = np.flatnonzero(~hit2 & demand)
        sets3 = l3s.capacity_bytes // l3s.block_bytes // l3s.associativity
        b3 = b2[pos3]
        s3 = (b3 >> shift2) & np.int64(sets3 - 1)
        hit3 = _recency_hits(s3, b3, 2 * l3s.associativity)
        meas3 = meas[pos3]
        l3_demand = int(meas3.sum())
        l3_demand_hits = int((hit3 & meas3).sum())
        l3_demand_misses = l3_demand - l3_demand_hits
        fills3 = l3_demand_misses

        lat2 = float(l2s.latency_cycles)
        lat3 = float(l3s.latency_cycles)
        stall = lat2 * l2_demand_hits * exposure
        stall += (lat2 + lat3) * l3_demand_hits * exposure
        stall += (lat2 + lat3 + mem_cycles) * l3_demand_misses * exposure * mlp

        lower_energy = (
            l2_demand * l2s.read_energy_nj
            + (n_l1_wb + fills2) * l2s.write_energy_nj
            + l3_demand * l3s.read_energy_nj
            + (l2_writebacks + fills3) * l3s.write_energy_nj
        )
        l2_stats = {
            "accesses": float(l2_accesses),
            "hits": float(l2_hits_total),
            "misses": float(l2_accesses - l2_hits_total),
            "writebacks": float(l2_writebacks),
        }
    elif kind in ("nurapid", "sa-nuca"):
        G = geo.n_dgroups
        # Distance-placement steady state: fills land in the fastest
        # d-group and stale blocks demote, so a hit's group tracks its
        # block's reuse distance measured in d-group frame capacities.
        dist = _reuse_distance(b2)
        rho = distinct2 / max(1, len(b2))  # distinct blocks per ref
        frames = geo.frames_per_dgroup
        bands = np.cumsum([frames] * (G - 1)).astype(np.float64) / max(rho, 1e-9)
        group = np.searchsorted(bands, dist.astype(np.float64), side="left")
        mhit = hit2 & meas
        gh_all = np.bincount(group[mhit], minlength=G).astype(np.int64)
        gh_dem = np.bincount(group[mdem_hit], minlength=G).astype(np.int64)
        gh_wb = gh_all - gh_dem
        ideal = kind == "nurapid" and nc.ideal_uniform
        if ideal:
            hit_lat = np.full(G, float(geo.hit_latency(0)))
        else:
            hit_lat = np.array([float(geo.hit_latency(g)) for g in range(G)])
        miss_beyond = (geo.miss_latency() + mem_cycles) * mlp
        stall = float((gh_dem * hit_lat).sum()) * exposure
        stall += miss_beyond * l2_demand_misses * exposure
        if not ideal:
            # Single-port queueing (§2.3): every hit occupies the one
            # data port.  Dirty-eviction writebacks are issued at the
            # fill time — ``now`` plus the triggering miss's *full*
            # latency, while the core clock only advances by the
            # exposed share — so a memory miss with a dirty victim
            # parks the port busy far ahead of the core clock and
            # later demand hits wait behind it.
            dem_hit = demand & hit2
            beyond = np.zeros(n)
            beyond[pos2[dem_hit]] = hit_lat[group[dem_hit]]
            beyond[pos2[demand & ~hit2]] = miss_beyond
            arrive = _arrivals(gaps, cpi, exposure, beyond)
            full_beyond = np.zeros(n)
            full_beyond[pos2[dem_hit]] = hit_lat[group[dem_hit]]
            full_beyond[pos2[demand & ~hit2]] = geo.miss_latency() + mem_cycles
            hidx = np.flatnonzero(hit2)
            hpos = pos2[hidx]
            t = arrive[hpos] + np.where(wbf[hidx], full_beyond[hpos], 0.0)
            occ_g = np.array([float(geo.data_occupancy(g)) for g in range(G)])
            wait = _port_wait(t, occ_g[group[hidx]])
            wsel = demand[hidx] & meas[hidx]
            stall += exposure * float(wait[wsel].sum())
        dgroup_fractions = {
            int(g): float(c) / l2_accesses for g, c in enumerate(gh_all) if c
        }
        dg_read = np.array([g.read_energy_nj for g in geo.dgroups])
        dg_write = np.array([g.write_energy_nj for g in geo.dgroups])
        lower_energy = (
            geo.tag_energy_nj * l2_accesses
            + float((gh_dem * dg_read).sum())
            + float((gh_wb * dg_write).sum())
            + fills2 * geo.dgroups[0].write_energy_nj
        )
        slow_hits = float(gh_all[1:].sum())
        if kind == "sa-nuca":
            # Bubble data placement: prewarmed sets are always full,
            # so every fill demotes a block through each slower group.
            promotions = slow_hits
            demotions = float(fills2) * (G - 1)
            chain_nj = sum(
                geo.swap_energy_nj(g - 1, g) for g in range(1, G)
            )
            lower_energy += fills2 * chain_nj
        else:
            # NuRAPID's distance replacement lands fills on free or
            # prewarmed-dummy frames; real demotions are rare until
            # the fastest group fills with live blocks.
            if nc.promotion is not PromotionPolicy.DEMOTION_ONLY:
                promotions = slow_hits / max(1, nc.promotion_hysteresis)
            else:
                promotions = 0.0
            demotions = 0.0
        if G > 1 and promotions:
            swap01 = geo.swap_energy_nj(0, 1) + geo.swap_energy_nj(1, 0)
            lower_energy += promotions * swap01
        l2_stats = {
            "accesses": float(l2_accesses),
            "hits": float(l2_hits_total),
            "misses": float(l2_accesses - l2_hits_total),
            "fills": float(fills2),
            "evictions": float(fills2),
            "writebacks": float(l2_writebacks),
            "dgroup_accesses": float(
                l2_hits_total + fills2 + 2.0 * (promotions + demotions)
            ),
            "promotions": promotions,
            "demotions": demotions,
        }
    elif kind == "s-nuca":
        bank_lat = np.array([b.latency_cycles for b in geo.banks], dtype=np.float64)
        bank_row = np.array([b.row for b in geo.banks], dtype=np.int64)
        bi = (s2 % geo.n_banks).astype(np.int64)
        lat_acc = bank_lat[bi]
        stall = float(lat_acc[mdem_hit].sum()) * exposure
        stall += float((lat_acc[mdem_miss] + mem_cycles).sum()) * exposure * mlp
        rows = bank_row[bi]
        mhit = hit2 & meas
        n_rows = int(bank_row.max()) + 1
        gh_all = np.bincount(rows[mhit], minlength=n_rows).astype(np.int64)
        dgroup_fractions = {
            int(g): float(c) / l2_accesses for g, c in enumerate(gh_all) if c
        }
        probe_c = np.array([b.probe_energy_nj for b in geo.banks])
        read_c = np.array([b.read_energy_nj for b in geo.banks])
        write_c = np.array([b.write_energy_nj for b in geo.banks])
        mmiss_all = meas & ~hit2
        mean_write = float(write_c[bi[meas]].mean()) if meas.any() else 0.0
        mean_read = float(read_c[bi[meas]].mean()) if meas.any() else 0.0
        lower_energy = (
            float(read_c[bi[mdem_hit]].sum())             # demand hit reads
            + float(write_c[bi[meas & wbf & hit2]].sum())  # writeback hit writes
            + float(probe_c[bi[mmiss_all]].sum())          # miss tag probes
            + fills2 * mean_write                          # fills
            + l2_writebacks * mean_read                    # dirty evictions
        )
        l2_stats = {
            "accesses": float(l2_accesses),
            "hits": float(l2_hits_total),
            "misses": float(l2_accesses - l2_hits_total),
            "fills": float(fills2),
            "evictions": float(fills2),
            "writebacks": float(l2_writebacks),
            "dgroup_accesses": float(l2_hits_total + fills2),
        }
    else:  # dnuca
        L = geo.chain_length
        cols = geo.cols
        lat_t = np.array(
            [[geo.chain_bank(c, lv).latency_cycles for c in range(cols)]
             for lv in range(L)],
            dtype=np.float64,
        )
        probe_t = np.array(
            [[geo.chain_bank(c, lv).probe_energy_nj for c in range(cols)]
             for lv in range(L)]
        )
        read_t = np.array(
            [[geo.chain_bank(c, lv).read_energy_nj for c in range(cols)]
             for lv in range(L)]
        )
        write_t = np.array(
            [[geo.chain_bank(c, lv).write_energy_nj for c in range(cols)]
             for lv in range(L)]
        )
        swap_t = np.array(
            [[geo.chain_bank(c, lv).swap_energy_nj for c in range(cols)]
             for lv in range(L)]
        )
        chain = (s2 % cols).astype(np.int64)
        # Bubble promotion: tail-inserted blocks climb one bank per
        # hit, so the h-th hit since fill lands ``h - 1`` banks up
        # from the insertion point.
        h_ord = _hits_since_fill(b2, hit2)
        start = L - 1 if dc.tail_insertion else 0
        level = np.clip(start - (h_ord - 1), 0, L - 1)
        if not dc.promote_on_hit:
            level = np.full(len(b2), start, dtype=np.int64)
        mhit = hit2 & meas
        gh_all = np.bincount(level[mhit], minlength=L).astype(np.int64)
        gh_dem = np.bincount(level[mdem_hit], minlength=L).astype(np.int64)
        ss_lat = float(geo.ss_latency_cycles)
        policy = dc.policy.value
        hit_lats = lat_t[level[mdem_hit], chain[mdem_hit]]
        if policy == "ss-performance":
            hit_beyond = hit_lats
            # Early misses pay only the ss-array lookup, but a
            # partial-tag collision with a resident block (a "false
            # hit") forces the multicast to wait for the worst bank in
            # the chain before the miss can be declared.
            pmask = (1 << dc.ss_partial_bits) - 1
            ptag = (
                b2 >> np.int64(shift2 + sets2.bit_length() - 1)
            ) & np.int64(pmask)
            false2 = _partial_false_hits(s2, ptag)
            # Prewarm dummies stay resident for the whole run and
            # contribute one partial tag per way to every set (the
            # dummy at way ``p`` of set ``i`` has tag ``T0 + p`` after
            # the exact division by n_sets).
            t0 = DNUCACache.PREWARM_BASE // block2 // sets2
            dummy_ptags = np.unique(
                np.array([(t0 + p) & pmask for p in range(assoc2)], dtype=np.int64)
            )
            false2 |= np.isin(ptag, dummy_ptags)
            worst_resp = lat_t.max(axis=0)
            miss_lat2 = np.where(false2, worst_resp[chain], ss_lat)
            miss_beyond = ss_lat
        elif policy == "ss-energy":
            hit_beyond = ss_lat + hit_lats
            miss_beyond = ss_lat
        else:  # incremental: probe the chain nearest-first
            cum = np.cumsum(lat_t, axis=0)
            hit_beyond = cum[level[mdem_hit], chain[mdem_hit]]
            miss_beyond = float(cum[-1].mean())
        stall = float(hit_beyond.sum()) * exposure
        if policy == "ss-performance":
            stall += (
                float((miss_lat2[mdem_miss] + mem_cycles).sum())
                * exposure
                * mlp
            )
        else:
            stall += (
                (miss_beyond + mem_cycles) * l2_demand_misses * exposure * mlp
            )
        if policy == "ss-performance":
            # Multicast occupies every bank of the chain on every
            # access; a hit's latency includes the queueing wait at
            # its actual bank.  (The other policies probe far fewer
            # banks; their residual waits are left to the tolerance.)
            occ_t = np.array(
                [[float(geo.chain_bank(c, lv).occupancy_cycles)
                  for c in range(cols)] for lv in range(L)]
            )
            dem_hit = demand & hit2
            beyond = np.zeros(n)
            beyond[pos2[dem_hit]] = lat_t[level[dem_hit], chain[dem_hit]]
            dmiss = demand & ~hit2
            beyond[pos2[dmiss]] = (miss_lat2[dmiss] + mem_cycles) * mlp
            arrive = _arrivals(gaps, cpi, exposure, beyond)
            full_beyond = np.zeros(n)
            full_beyond[pos2[dem_hit]] = lat_t[level[dem_hit], chain[dem_hit]]
            full_beyond[pos2[dmiss]] = miss_lat2[dmiss] + mem_cycles
            # Writebacks multicast at fill time (now + full latency).
            t_all = arrive[pos2] + np.where(wbf, full_beyond[pos2], 0.0)
            ordc = np.argsort(chain.astype(np.uint8), kind="stable")
            tc = t_all[ordc]
            chc = chain[ordc]
            new_seg = np.empty(len(tc), dtype=bool)
            new_seg[0] = True
            new_seg[1:] = chc[1:] != chc[:-1]
            lv_c = level[ordc]
            hitc = hit2[ordc]
            hit_wait = np.zeros(len(b2))
            worst_dyn = np.zeros(len(b2))
            for lv in range(L):
                occ_v = occ_t[lv, chc]
                if dc.promote_on_hit:
                    # A hit at level > 0 swaps with the next bank up:
                    # the source bank is occupied again for the read,
                    # the destination bank for the write.
                    occ_v = occ_v.copy()
                    if lv > 0:
                        occ_v[hitc & (lv_c == lv)] *= 2.0
                    occ_v[hitc & (lv_c == lv + 1)] *= 2.0
                w = _banked_wait(tc, occ_v, new_seg)
                sel = lv_c == lv
                hit_wait[ordc[sel]] = w[sel]
                resp = np.zeros(len(b2))
                resp[ordc] = w + lat_t[lv, chc]
                np.maximum(worst_dyn, resp, out=worst_dyn)
            stall += exposure * float(hit_wait[dem_hit & meas].sum())
            # A false hit's miss declaration waits for the *worst* bank
            # response, queueing wait included; the static
            # ``worst_resp`` charged above misses the wait portion.
            fsel = false2 & mdem_miss
            stall += (
                exposure
                * mlp
                * float(
                    np.maximum(worst_dyn[fsel] - worst_resp[chain[fsel]], 0.0).sum()
                )
            )
        dgroup_fractions = {
            int(g): float(c) / l2_accesses for g, c in enumerate(gh_all) if c
        }
        # Energy: every access pays the ss-array probe (except the
        # incremental policy); ss-performance multicasts a tag probe
        # to all banks of the chain, hits upgrade the actual bank's
        # probe to a full read.
        probe_chain = probe_t.sum(axis=0)
        lower_energy = 0.0
        if policy != "incremental":
            lower_energy += geo.ss_energy_nj * l2_accesses
        if policy == "ss-performance":
            lower_energy += float(probe_chain[chain[meas]].sum())
            lower_energy += float(
                (read_t - probe_t)[level[mhit], chain[mhit]].sum()
            )
        else:
            # ss-energy probes only true candidates (usually just the
            # hit bank); incremental walks the whole chain on a miss.
            lower_energy += float(read_t[level[mhit], chain[mhit]].sum())
            if policy == "incremental":
                lower_energy += float(probe_chain[chain[meas & ~hit2]].sum())
        tail = L - 1 if dc.tail_insertion else 0
        lower_energy += fills2 * float(write_t[tail].mean())
        promotions = float(gh_all[1:].sum()) if dc.promote_on_hit else 0.0
        lower_energy += promotions * 2.0 * float(swap_t.mean())
        l2_stats = {
            "accesses": float(l2_accesses),
            "hits": float(l2_hits_total),
            "misses": float(l2_accesses - l2_hits_total),
            "fills": float(fills2),
            "evictions": float(fills2),
            "writebacks": float(l2_writebacks),
            "dgroup_accesses": float(l2_hits_total + fills2),
            "promotions": promotions,
        }

    # --- core timing (closed form) ---
    t_cycles = instructions / profile.core_ipc
    p_cycles = (
        instructions
        * profile.branch_fraction
        * profile.mispredict_rate
        * core.mispredict_penalty
    )
    cycles = t_cycles + p_cycles + stall

    # --- energy ---
    l1_energy = (
        n_reads * l1.read_energy_nj
        + (n_writes + l1_fills) * l1.write_energy_nj
    )
    model = energy_model if energy_model is not None else ProcessorEnergyModel()

    extra = dict(l2_stats)
    extra["mshr_full_stalls"] = 0.0
    extra["stall_cycles"] = stall
    extra["branch_penalty_cycles"] = p_cycles
    extra["memory_accesses"] = float(n_refs)

    return RunResult(
        benchmark=benchmark,
        config_name=config.name,
        instructions=instructions,
        cycles=cycles,
        l2_accesses=int(l2_stats.get("accesses", 0)),
        l2_hits=int(l2_stats.get("hits", 0)),
        l2_misses=int(l2_stats.get("misses", 0)),
        dgroup_fractions=dgroup_fractions,
        l1_energy_nj=l1_energy,
        lower_energy_nj=lower_energy,
        core_energy_nj=model.core_energy_nj(instructions, cycles),
        stats=extra,
        telemetry=None,
    )
