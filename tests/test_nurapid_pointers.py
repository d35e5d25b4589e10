"""Forward and reverse pointers: frame arrays, free lists and regions.

Each d-group is one frame array whose entries point back at tag slots;
each placement region keeps its free frames as an index list that
allocation takes from the tail.  These checks drive the arrays through
the cache's own fill/access paths on a tiny 64 KB, 4-way, 4-d-group
cache (256 sets, 256 frames per d-group).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.faults.models import FaultPlan, HardFaultEvent
from repro.nurapid.cache import _PACK_FRAME_MASK, NuRAPIDCache
from repro.nurapid.config import NuRAPIDConfig

KB = 1024


def tiny(**overrides):
    defaults = dict(
        capacity_bytes=64 * KB, block_bytes=64, associativity=4, n_dgroups=4,
        seed=7, name="tiny",
    )
    defaults.update(overrides)
    return NuRAPIDCache(NuRAPIDConfig(**defaults))


def addr(set_index, tag):
    return (tag * 256 + set_index) * 64


class TestBasics:
    def test_allocate_and_occupant(self):
        c = tiny()
        for k, tag in enumerate(range(3)):
            c.fill(addr(5, tag))
            entry = c.lookup(addr(5, tag))
            # Frames come off the free-list tail.
            assert (entry.dgroup, entry.frame) == (0, 255 - k)
        assert c.dgroup_occupancy()[0] == (3, 256)
        c.check_invariants()  # every forward pointer has its reverse

    def test_release_returns_occupant(self):
        c = tiny()
        for tag in range(5):  # the fifth fill evicts the set's LRU block
            c.fill(addr(5, tag))
        assert not c.contains(addr(5, 0))
        # The evicted block's frame went back on the free-list tail and
        # was the first one reused.
        assert c.lookup(addr(5, 4)).frame == 255
        assert c.dgroup_occupancy()[0] == (4, 256)
        c.check_invariants()

    def test_replace_swaps_occupant(self):
        c = tiny()
        for index in range(256):
            c.fill(addr(index, 0))
        c.fill(addr(0, 1))  # d-group 0 is full: a demotion frees a frame
        frame = c.lookup(addr(0, 1)).frame
        demoted = addr(255 - frame, 0)  # the block that held that frame
        assert c.dgroup_of(demoted) == 1
        assert c.dgroup_occupancy()[:2] == [(256, 256), (1, 256)]
        c.check_invariants()

    def test_fill_to_capacity(self):
        c = tiny()
        c.prewarm()
        assert c.dgroup_occupancy() == [(256, 256)] * 4
        for tag in range(8, 40):
            c.fill(addr(3, tag))
        assert c.dgroup_occupancy() == [(256, 256)] * 4
        assert c.resident_blocks() == 1024
        c.check_invariants()

    def test_retired_frames_leave_the_free_list(self):
        c = tiny()
        c.attach_faults(
            FaultPlan(
                hard_faults=(HardFaultEvent(at_access=1, dgroup=0, subarray=3),),
                data_subarrays_per_dgroup=4,
                spare_subarrays_per_dgroup=0,
            )
        )
        c.access(0)
        c.access(0)  # retires frames 192..255 of d-group 0
        assert c.retired_frames() == [64, 0, 0, 0]
        c.fill(addr(5, 0))
        assert c.lookup(addr(5, 0)).frame == 191
        assert c.dgroup_occupancy()[0] == (1, 256)
        c.check_invariants()

    def test_frame_bounds_checked(self):
        # A forward pointer holds frame numbers up to _PACK_FRAME_MASK;
        # a d-group with more frames than that is rejected up front.
        with pytest.raises(ConfigurationError):
            tiny(capacity_bytes=(_PACK_FRAME_MASK + 1) * 64, n_dgroups=1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny(restricted_frames=0)
        with pytest.raises(ConfigurationError):
            tiny(restricted_frames=96)  # does not divide 256 frames


class TestRegions:
    def test_regions_partition_frames(self):
        c = tiny(restricted_frames=64)  # 4 regions of 64 frames
        for index in range(4):
            c.fill(addr(index, 0))
            assert c.lookup(addr(index, 0)).frame == (index + 1) * 64 - 1
        c.check_invariants()

    def test_region_free_counts_independent(self):
        c = tiny(restricted_frames=64)
        for index in range(0, 256, 4):  # region 0 holds sets 0, 4, 8...
            c.fill(addr(index, 0))
        assert c.dgroup_occupancy()[0] == (64, 256)
        # Region 0 is full, so its next fill demotes; region 1 still
        # takes a free frame of its own.
        c.fill(addr(0, 1))
        c.fill(addr(1, 0))
        assert c.dgroup_occupancy()[:2] == [(65, 256), (1, 256)]
        assert c.lookup(addr(1, 0)).frame == 127
        c.check_invariants()

    def test_release_returns_frame_to_its_region(self):
        c = tiny(restricted_frames=64)
        for tag in range(5):
            c.fill(addr(1, tag))
        assert not c.contains(addr(1, 0))
        assert c.lookup(addr(1, 4)).frame == 127
        c.check_invariants()

    def test_region_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            tiny(restricted_frames=512)  # wider than the d-group
        with pytest.raises(ConfigurationError):
            # 8 ways: 128 sets cannot be split over 256 one-frame regions.
            tiny(associativity=8, restricted_frames=1)


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["fill", "read", "write"]), st.integers(0, 2047)),
            max_size=300,
        ),
        restricted=st.sampled_from([None, 64]),
    )
    def test_random_operations_preserve_invariants(self, ops, restricted):
        c = tiny(restricted_frames=restricted)
        model = set()
        for op, block in ops:
            address = block * 64
            if op == "fill":
                c.fill(address)
            else:
                c.access(address, is_write=op == "write")
            if c.contains(address):
                model.add(address)
        c.check_invariants()
        assert c.resident_blocks() == sum(c.contains(a) for a in model)
        occupied = sum(occupied for occupied, _ in c.dgroup_occupancy())
        assert occupied == c.resident_blocks()


def test_random_traffic_after_prewarm_keeps_pointers_consistent():
    c = tiny(restricted_frames=64)
    c.prewarm()
    rng = random.Random(3)
    for step in range(3000):
        address = rng.randrange(4096) * 64
        if not c.access(address, is_write=rng.random() < 0.3, now=float(step)).hit:
            c.fill(address, now=float(step))
    c.check_invariants()
