"""Workloads: suite integrity, trace containers, the generator."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.workloads.spec2k import (
    SPEC2K_SUITE,
    get_benchmark,
    high_load_names,
    low_load_names,
    suite_names,
)
from repro.workloads.trace import Trace
from repro.workloads.tracegen import (
    BULK_BASE,
    HOT_BASE,
    REFERENCE_BLOCK,
    REFERENCE_L2_SETS,
    STREAM_BASE,
    WARM_BASE,
    TraceGenerator,
    generate_trace,
)


class TestSuite:
    def test_fifteen_applications(self):
        assert len(SPEC2K_SUITE) == 15

    def test_load_split_matches_paper(self):
        assert len(high_load_names()) == 12
        assert len(low_load_names()) == 3

    def test_known_members(self):
        for name in ("art", "mcf", "applu", "wupwise"):
            assert name in SPEC2K_SUITE

    def test_get_benchmark_error(self):
        with pytest.raises(ConfigurationError):
            get_benchmark("doom3")

    def test_shares_sum_to_one(self):
        for profile in SPEC2K_SUITE.values():
            total = (
                profile.warm_share
                + profile.bulk_share
                + profile.stream_share
                + profile.l2hot_share
            )
            assert total == pytest.approx(1.0)

    def test_beyond_l1_fraction_sane(self):
        for profile in SPEC2K_SUITE.values():
            assert 0.0 < profile.beyond_l1_fraction < 0.5

    def test_suite_names_sorted(self):
        assert suite_names() == sorted(suite_names())

    def test_high_load_has_heavier_apki(self):
        high = min(SPEC2K_SUITE[n].table3_l2_apki for n in high_load_names())
        low = max(SPEC2K_SUITE[n].table3_l2_apki for n in low_load_names())
        assert high > low


class TestTrace:
    def _trace(self, n=10):
        return Trace(
            benchmark="x",
            gaps=np.full(n, 3, dtype=np.int64),
            addresses=np.arange(n, dtype=np.int64) * 128,
            writes=np.zeros(n, dtype=bool),
        )

    def test_lengths_and_instructions(self):
        t = self._trace(10)
        assert len(t) == 10
        assert t.references == 10
        assert t.instructions == 30

    def test_records_iteration(self):
        t = self._trace(3)
        records = list(t.records())
        assert records[1] == (3, 128, False)

    def test_head_and_split(self):
        t = self._trace(10)
        warm, rest = t.split(0.3)
        assert len(warm) == 3 and len(rest) == 7
        assert warm.addresses[0] == t.addresses[0]
        assert rest.addresses[0] == t.addresses[3]

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            Trace(
                benchmark="x",
                gaps=np.ones(3, dtype=np.int64),
                addresses=np.zeros(2, dtype=np.int64),
                writes=np.zeros(3, dtype=bool),
            )

    def test_zero_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            Trace(
                benchmark="x",
                gaps=np.zeros(3, dtype=np.int64),
                addresses=np.zeros(3, dtype=np.int64),
                writes=np.zeros(3, dtype=bool),
            )

    def test_save_load_roundtrip(self, tmp_path):
        t = self._trace(10)
        path = str(tmp_path / "trace.npz")
        t.save(path)
        loaded = Trace.load(path)
        assert loaded.benchmark == t.benchmark
        assert np.array_equal(loaded.addresses, t.addresses)
        assert np.array_equal(loaded.gaps, t.gaps)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Trace.load(str(tmp_path / "nope.npz"))


class TestTraceGenerator:
    def test_deterministic(self):
        p = get_benchmark("art")
        a = generate_trace(p, 5000, seed=3)
        b = generate_trace(p, 5000, seed=3)
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.gaps, b.gaps)

    def test_seed_changes_stream(self):
        p = get_benchmark("art")
        a = generate_trace(p, 5000, seed=3)
        b = generate_trace(p, 5000, seed=4)
        assert not np.array_equal(a.addresses, b.addresses)

    def test_addresses_fall_in_known_regions(self):
        from repro.workloads.tracegen import L2HOT_BASE

        p = get_benchmark("equake")
        t = generate_trace(p, 20000, seed=1)
        a = t.addresses
        # Tag scattering permutes bits 20-27, so membership is checked
        # against each region's 256 MB window (bits >= 28).
        in_region = (
            ((a >= HOT_BASE) & (a < L2HOT_BASE))
            | ((a >= L2HOT_BASE) & (a < WARM_BASE))
            | ((a >= WARM_BASE) & (a < BULK_BASE))
            | ((a >= BULK_BASE) & (a < STREAM_BASE))
            | (a >= STREAM_BASE)
        )
        assert bool(in_region.all())

    def test_beyond_l1_share_near_target(self):
        from repro.workloads.tracegen import L2HOT_BASE

        p = get_benchmark("applu")
        t = generate_trace(p, 60000, seed=1)
        beyond = (t.addresses >= L2HOT_BASE).mean()
        assert beyond == pytest.approx(p.beyond_l1_fraction, rel=0.15)

    def test_write_fraction_near_target(self):
        p = get_benchmark("applu")
        t = generate_trace(p, 60000, seed=1)
        assert t.writes.mean() == pytest.approx(p.write_fraction, rel=0.15)

    def test_mean_gap_matches_mem_fraction(self):
        p = get_benchmark("applu")
        t = generate_trace(p, 60000, seed=1)
        assert t.gaps.mean() == pytest.approx(1.0 / p.mem_fraction, rel=0.1)

    def test_conflict_layout_concentrates_sets(self):
        p = get_benchmark("art")  # warm_set_conflict = 3
        t = generate_trace(p, 60000, seed=1)
        warm = t.addresses[(t.addresses >= WARM_BASE) & (t.addresses < BULK_BASE)]
        sets = (warm // REFERENCE_BLOCK) % REFERENCE_L2_SETS
        used = np.unique(sets)
        assert len(used) <= REFERENCE_L2_SETS // p.warm_set_conflict
        assert bool((used % p.warm_set_conflict == 0).all())

    def test_drift_shifts_popularity(self):
        """Early and late halves of the warm stream differ in their
        most popular blocks when drift is enabled."""
        p = get_benchmark("applu")
        t = generate_trace(p, 200000, seed=1)
        warm_mask = (t.addresses >= WARM_BASE) & (t.addresses < BULK_BASE)
        warm = t.addresses[warm_mask]
        half = len(warm) // 2
        early = set(np.unique(warm[:half]).tolist())
        late_counts = {}
        for a in warm[half:]:
            late_counts[int(a)] = late_counts.get(int(a), 0) + 1
        fresh_late = [a for a in late_counts if a not in early]
        assert fresh_late  # drift introduced previously untouched blocks

    def test_stream_is_sequential(self):
        p = get_benchmark("swim")
        t = generate_trace(p, 60000, seed=1)
        stream = t.addresses[t.addresses >= STREAM_BASE]
        deltas = np.diff(stream)
        assert bool((deltas[deltas > 0] == p.stream_stride).all())

    def test_invalid_reference_count(self):
        with pytest.raises(ConfigurationError):
            generate_trace(get_benchmark("art"), 0)

    def test_invalid_conflict(self):
        with pytest.raises(ConfigurationError):
            TraceGenerator(get_benchmark("art"), warm_set_conflict=0)


class TestDecodedValidation:
    """Trace.decoded_batch rejects geometry it cannot mask."""

    def _trace(self, n=16):
        p = get_benchmark("art")
        return generate_trace(p, n, seed=3)

    def test_non_power_of_two_block_bytes(self):
        t = self._trace()
        with pytest.raises(ConfigurationError, match="power of two"):
            t.decoded_batch(block_bytes=48, n_sets=64)

    def test_non_power_of_two_sets(self):
        t = self._trace()
        with pytest.raises(ConfigurationError, match="power of two"):
            t.decoded_batch(block_bytes=32, n_sets=12)

    def test_non_positive_geometry(self):
        t = self._trace()
        with pytest.raises(ConfigurationError):
            t.decoded_batch(block_bytes=0, n_sets=64)
        with pytest.raises(ConfigurationError):
            t.decoded_batch(block_bytes=32, n_sets=-8)

    def test_empty_trace(self):
        empty = Trace(
            benchmark="empty",
            gaps=np.zeros(0, dtype=np.int64),
            addresses=np.zeros(0, dtype=np.int64),
            writes=np.zeros(0, dtype=bool),
        )
        with pytest.raises(ConfigurationError, match="empty"):
            empty.decoded_batch(block_bytes=32, n_sets=64)

    def test_batch_shares_validation(self):
        t = self._trace()
        with pytest.raises(ConfigurationError, match="power of two"):
            t.decoded_batch(block_bytes=48, n_sets=64)
        empty = Trace(
            benchmark="empty",
            gaps=np.zeros(0, dtype=np.int64),
            addresses=np.zeros(0, dtype=np.int64),
            writes=np.zeros(0, dtype=bool),
        )
        with pytest.raises(ConfigurationError, match="empty"):
            empty.decoded_batch(block_bytes=32, n_sets=64)

    def test_valid_geometry_decodes(self):
        t = self._trace()
        d = t.decoded_batch(block_bytes=32, n_sets=64)
        assert len(d.block_addrs) == len(d) == len(t)
        assert all(b % 32 == 0 for b in d.block_addrs.tolist())
        assert all(0 <= s < 64 for s in d.sets.tolist())
