"""Synthetic reference-trace generation.

Each benchmark's stream is a mixture of four components drawn per
reference (vectorized with numpy for speed):

* **hot** — uniform over a region that fits in the L1; these become
  the pipelined L1 hits that dominate instruction throughput.
* **warm** — Zipf-skewed reuse over the contended working set (0.7–3
  MB); these are the L2 hits whose placement the paper's policies
  fight over.
* **bulk** — Zipf-tailed traffic over several to tens of megabytes;
  spreads across slower d-groups and produces capacity misses.
* **stream** — a sequential pointer; compulsory misses plus the
  spatial reuse a 128 B block gives a smaller stride.

Popularity ranks are permuted before being mapped to addresses so that
"popular" is uncorrelated with set index; a profile's set-conflict
layout (``BenchmarkProfile.warm_set_conflict``) concentrates the warm
region into a fraction of the L2's sets to create the hot sets §2.1
argues coupled placement handles badly.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.resilience.integrity import (
    remove_sidecar,
    sidecar_path,
    verify_sidecar,
    write_sidecar,
)
from repro.resilience.locks import FileLock
from repro.telemetry.runtime import runtime_registry
from repro.workloads import transport
from repro.workloads.interleave import interleave_traces, spec_records
from repro.workloads.spec2k import BenchmarkProfile, get_benchmark
from repro.workloads.trace import Trace

#: Region base addresses, far enough apart never to alias.
HOT_BASE = 0x1000_0000
L2HOT_BASE = 0x2000_0000
WARM_BASE = 0x4000_0000
BULK_BASE = 0x8000_0000
STREAM_BASE = 0x10_0000_0000

#: Reference L2 set count used for the conflict layout (8 MB, 8-way,
#: 128 B blocks).  The layout targets the cache under study.
REFERENCE_L2_SETS = 8192
REFERENCE_BLOCK = 128

#: Granularity of hot-region references (an L1 block).
HOT_GRAIN = 32


def _scatter_tags(addresses: np.ndarray) -> np.ndarray:
    """Permute address bits 20-27 within each region.

    Real SPEC footprints are scattered over virtual pages, so blocks
    sharing a cache set rarely share low-order tag bits.  Our regions
    are compact, which would make D-NUCA's 7-bit partial tags alias on
    nearly every miss and neuter its early-miss detection.  A bijective
    odd-multiplier permutation of bits 20-27 spreads the tags the way
    page allocation does, while leaving every cache's set-index bits
    (all below bit 20) and the region bases (at bit 28 and above)
    untouched.
    """
    window = (addresses >> 20) & 0xFF
    permuted = (window * 167 + 89) & 0xFF  # odd multiplier: a bijection mod 256
    return (addresses & ~(0xFF << 20)) | (permuted << 20)


def _zipf_sampler(rng: np.random.Generator, n_items: int, alpha: float):
    """Return a function drawing Zipf(alpha)-distributed ranks < n_items."""
    if n_items <= 0:
        raise ConfigurationError("zipf needs a positive item count")
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]

    def draw(count: int) -> np.ndarray:
        return np.searchsorted(cdf, rng.random(count), side="left")

    return draw


@dataclass
class TraceGenerator:
    """Deterministic generator for one benchmark profile.

    The set-conflict layout is the profile's ``warm_set_conflict``: a
    trace's per-set locality belongs to its workload.
    """

    profile: BenchmarkProfile
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(
            derive_seed(self.seed, f"trace/{self.profile.name}")
        )

    # --- address construction ---

    def _conflict_layout(self, blocks: np.ndarray, base: int) -> np.ndarray:
        """Lay blocks out contiguously, or into every c-th set.

        With conflict c > 1 block i lands in set (i mod sets/c) * c,
        layer i // (sets/c): the region concentrates into a fraction of
        the sets, creating the hot sets coupled placement handles badly.
        """
        c = self.profile.warm_set_conflict
        if c == 1:
            return base + blocks.astype(np.int64) * REFERENCE_BLOCK
        sets_used = max(1, REFERENCE_L2_SETS // c)
        set_id = (blocks % sets_used) * c
        layer = blocks // sets_used
        slot = layer.astype(np.int64) * REFERENCE_L2_SETS + set_id
        return base + slot * REFERENCE_BLOCK

    def _warm_addresses(self, ranks: np.ndarray) -> np.ndarray:
        """Map warm popularity ranks to (optionally conflicting) addresses."""
        p = self.profile
        n_blocks = max(1, p.warm_bytes // REFERENCE_BLOCK)
        perm = np.random.default_rng(
            derive_seed(self.seed, f"perm-warm/{p.name}")
        ).permutation(n_blocks)
        blocks = perm[np.minimum(ranks, n_blocks - 1)]
        return self._conflict_layout(blocks, WARM_BASE)

    def _bulk_addresses(self, ranks: np.ndarray) -> np.ndarray:
        p = self.profile
        n_blocks = max(1, p.bulk_bytes // REFERENCE_BLOCK)
        perm = np.random.default_rng(
            derive_seed(self.seed, f"perm-bulk/{p.name}")
        ).permutation(n_blocks)
        blocks = perm[np.minimum(ranks, n_blocks - 1)]
        return BULK_BASE + blocks.astype(np.int64) * REFERENCE_BLOCK

    # --- generation ---

    def generate(self, n_references: int) -> Trace:
        """Produce ``n_references`` records."""
        if n_references <= 0:
            raise ConfigurationError("n_references must be positive")
        p = self.profile
        rng = self._rng

        beyond = p.beyond_l1_fraction
        probs = np.array(
            [
                1.0 - beyond,
                beyond * p.warm_share,
                beyond * p.bulk_share,
                beyond * p.stream_share,
                beyond * p.l2hot_share,
            ]
        )
        region = rng.choice(5, size=n_references, p=probs)

        addresses = np.zeros(n_references, dtype=np.int64)

        hot_mask = region == 0
        n_hot_blocks = max(1, p.hot_bytes // HOT_GRAIN)
        hot_blocks = rng.integers(0, n_hot_blocks, size=int(hot_mask.sum()))
        addresses[hot_mask] = HOT_BASE + hot_blocks * HOT_GRAIN

        warm_mask = region == 1
        if warm_mask.any():
            n_warm = max(1, p.warm_bytes // REFERENCE_BLOCK)
            count = int(warm_mask.sum())
            draw = _zipf_sampler(rng, n_warm, p.warm_zipf_alpha)
            ranks = draw(count)
            # Hot-head drift: a fraction of warm traffic concentrates
            # on a sliding window of the region.  The window's blocks
            # are cache-resident (no extra misses) but were last hot a
            # phase ago — the blocks demotion-only placement strands.
            window = max(1, int(n_warm * p.warm_head_window))
            if p.warm_head_share > 0 and window < n_warm:
                positions = np.flatnonzero(warm_mask)
                phase = positions // max(1, p.warm_drift_period)
                step_blocks = max(1, int(n_warm * p.warm_drift_step))
                head = rng.random(count) < p.warm_head_share
                offsets = rng.integers(0, window, size=count)
                head_ranks = (phase * step_blocks + offsets) % n_warm
                ranks = np.where(head, head_ranks, ranks)
            addresses[warm_mask] = self._warm_addresses(ranks)

        bulk_mask = region == 2
        if bulk_mask.any():
            n_bulk = max(1, p.bulk_bytes // REFERENCE_BLOCK)
            draw = _zipf_sampler(rng, n_bulk, p.zipf_alpha)
            addresses[bulk_mask] = self._bulk_addresses(draw(int(bulk_mask.sum())))

        stream_mask = region == 3
        n_stream = int(stream_mask.sum())
        if n_stream:
            steps = np.arange(1, n_stream + 1, dtype=np.int64)
            # Wrap within 256 MB so the address space stays bounded on
            # very long runs; the wrap period far exceeds cache reach.
            offsets = (steps * p.stream_stride) % (256 * 1024 * 1024)
            addresses[stream_mask] = STREAM_BASE + offsets

        l2hot_mask = region == 4
        if l2hot_mask.any():
            n_l2hot = max(1, p.l2hot_bytes // REFERENCE_BLOCK)
            draw = _zipf_sampler(rng, n_l2hot, 0.3)
            ranks = draw(int(l2hot_mask.sum()))
            perm = np.random.default_rng(
                derive_seed(self.seed, f"perm-l2hot/{p.name}")
            ).permutation(n_l2hot)
            blocks = perm[np.minimum(ranks, n_l2hot - 1)]
            addresses[l2hot_mask] = self._conflict_layout(
                blocks, L2HOT_BASE
            )

        addresses = _scatter_tags(addresses)
        gaps = rng.geometric(p.mem_fraction, size=n_references).astype(np.int64)
        writes = rng.random(n_references) < p.write_fraction

        return Trace(
            benchmark=p.name,
            gaps=gaps,
            addresses=addresses,
            writes=writes,
        )


def generate_trace(
    profile: BenchmarkProfile, n_references: int, seed: int = 0
) -> Trace:
    """Convenience wrapper: one-shot trace for a profile."""
    return TraceGenerator(profile=profile, seed=seed).generate(n_references)


def generate_spec_trace(spec: str, n_references: int, seed: int = 0) -> Trace:
    """The trace of a per-core spec, the one generator of every cell.

    A one-part spec is :func:`generate_trace`.  ``"a+b+..."`` names one
    app per core: core ``i`` issues ``n_references // k`` references
    seeded with ``derive_seed(seed, f"cmp/core{i}")``, merged by
    :func:`~repro.workloads.interleave.interleave_traces`, so the trace
    holds :func:`~repro.workloads.interleave.spec_records` records and
    each record's core lives in its address bits.
    """
    parts = spec.split("+")
    profiles = [get_benchmark(part) for part in parts]
    if len(parts) == 1:
        return generate_trace(profiles[0], n_references, seed)
    per_core = n_references // len(parts)
    if per_core < 1:
        raise ConfigurationError(
            f"{n_references} references cannot feed {len(parts)} cores"
        )
    streams = [
        generate_trace(profile, per_core, derive_seed(seed, f"cmp/core{i}"))
        for i, profile in enumerate(profiles)
    ]
    return interleave_traces(
        streams, [profile.core_ipc for profile in profiles], benchmark=spec
    )


def default_trace_cache_dir() -> Optional[str]:
    """The ambient cache directory: ``REPRO_TRACE_CACHE``, or None."""
    return os.environ.get("REPRO_TRACE_CACHE") or None


class TraceCache:
    """On-disk trace store keyed by generation parameters.

    A trace is fully determined by ``(spec, n_references, seed)``
    (:func:`generate_spec_trace`; the spec is one benchmark, or
    ``"a+b"`` for an interleaved multi-core trace), so those three
    values are the file name and the cache needs no invalidation
    logic.  The name's fixed ``-c1`` suffix keeps entries written by
    older versions valid.  An entry is the trace's
    :meth:`~repro.workloads.trace.Trace.save` ``.npy`` plus a
    ``<name>.npy.sha256`` sidecar; a hit verifies the sidecar, then
    memory-maps the file read-only, which is how pool workers share one
    copy of each trace through the page cache.

    Writes go to a unique temp file, then ``os.replace``, then the
    sidecar, all under a per-entry :class:`FileLock`: N processes
    cold-starting on a shared directory generate each trace once, and
    a reader never trusts a file its sidecar does not vouch for.  An
    entry without a sidecar (a write cut short before its sidecar) is
    regenerated quietly.  A checksum mismatch or a file that does not
    match its key (disk damage, a benchmark-profile edit that changed
    the record count) is regenerated loudly: a :class:`RuntimeWarning`
    and the runtime counter ``trace_cache.corrupt_recovered`` record
    that disk state was thrown away.  ``hits`` / ``misses`` count how
    often the disk copy was usable.
    """

    def __init__(self, directory: str) -> None:
        if not directory:
            raise ConfigurationError("trace cache needs a directory")
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def path_for(self, benchmark: str, n_references: int, seed: int = 0) -> str:
        return os.path.join(
            self.directory, f"{benchmark}-r{n_references}-s{seed}-c1.npy"
        )

    def _load_valid(
        self, path: str, benchmark: str, n_references: int, report: bool = True
    ) -> Optional[Trace]:
        if not os.path.exists(path):
            return None
        # Sidecar first: only a file it vouches for is mapped.
        verdict = verify_sidecar(path)
        if verdict is not True:
            if verdict is False and report:
                self._report_unusable(path, "failed its checksum")
            return None
        try:
            return Trace.load(path, benchmark, spec_records(benchmark, n_references))
        except ConfigurationError as exc:
            if report:
                self._report_unusable(path, f"does not match its key ({exc})")
            return None

    @staticmethod
    def _report_unusable(path: str, reason: str) -> None:
        runtime_registry().add("trace_cache.corrupt_recovered")
        warnings.warn(
            f"trace cache entry {path!r} {reason}; regenerating it "
            "(cached simulation inputs on this disk are not trustworthy)",
            RuntimeWarning,
            stacklevel=4,
        )

    def fetch(
        self, benchmark: str, n_references: int, seed: int = 0
    ) -> Tuple[Trace, str]:
        """The mapped trace and its entry path, generating at most once."""
        if n_references <= 0:
            raise ConfigurationError("n_references must be positive")
        path = self.path_for(benchmark, n_references, seed)
        trace = self._load_valid(path, benchmark, n_references)
        if trace is not None:
            self.hits += 1
            return trace, path
        os.makedirs(self.directory, exist_ok=True)
        with FileLock(path + ".lock"):
            # Another process may have generated it while we waited; a
            # still-broken file was already reported above, so this
            # re-check stays quiet.
            trace = self._load_valid(path, benchmark, n_references, report=False)
            if trace is not None:
                self.hits += 1
                return trace, path
            generated = generate_spec_trace(benchmark, n_references, seed)
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                generated.save(tmp)
                os.replace(tmp, path)
                write_sidecar(path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        runtime_registry().add("transport.segment_builds")
        self.misses += 1
        records = spec_records(benchmark, n_references)
        return Trace.load(path, benchmark, records), path

    def get(self, benchmark: str, n_references: int, seed: int = 0) -> Trace:
        """The trace, memory-mapped read-only from its entry."""
        return self.fetch(benchmark, n_references, seed)[0]

    def ensure(self, benchmark: str, n_references: int, seed: int = 0) -> str:
        """Guarantee a verified entry exists on disk; return its path."""
        return self.fetch(benchmark, n_references, seed)[1]

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-written entries past a size budget.

        Returns the number of entries removed.  An entry's size counts
        its sidecar, and each entry leaves together with its sidecar.
        Entries are evicted oldest-``mtime`` first until the directory's
        entries fit ``max_bytes``; loading a trace does not bump its
        mtime, so this is a cheap FIFO-by-write policy rather than
        strict LRU.
        """
        if max_bytes < 0:
            raise ConfigurationError("max_bytes must be non-negative")
        if not os.path.isdir(self.directory):
            return 0
        entries = []
        for name in os.listdir(self.directory):
            if not name.endswith(".npy"):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            size = stat.st_size
            try:
                size += os.path.getsize(sidecar_path(path))
            except OSError:
                pass
            entries.append((stat.st_mtime, size, path))
        entries.sort()
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            remove_sidecar(path)
            total -= size
            removed += 1
        return removed


@contextmanager
def trace_entries(
    benchmarks: Iterable[str],
    n_references: int,
    seed: int = 0,
    directory: Optional[str] = None,
) -> Iterator[Dict[str, str]]:
    """``{spec: entry path}`` for a grid's shared traces.

    ``benchmarks`` are trace specs: one benchmark, or ``"a+b"`` for a
    multi-core trace (:func:`generate_spec_trace`).
    Ensures each spec's entry once in ``directory``, else in
    ``REPRO_TRACE_CACHE``, else in a scratch directory that is removed
    on exit, together with this process's memoized mappings of its
    entries.  Cells reach their trace through the path
    (:mod:`repro.workloads.transport`).
    """
    directory = directory or default_trace_cache_dir()
    scratch = None
    if directory is None:
        scratch = directory = tempfile.mkdtemp(prefix="repro-trace-cache-")
    paths: Dict[str, str] = {}
    try:
        cache = TraceCache(directory)
        for benchmark in sorted(set(benchmarks)):
            paths[benchmark] = cache.ensure(benchmark, n_references, seed)
        yield paths
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
            transport.forget(paths.values())
