"""Counters and distributions."""

import pytest

from repro.common.stats import Counter, Distribution, fold_sum


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("hits")
        c.add("hits", 2)
        assert c.get("hits") == 3
        assert c.get("absent") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add("x", -1)

    def test_reset(self):
        c = Counter()
        c.add("x")
        c.reset()
        assert c.get("x") == 0
        assert c.as_dict() == {}

    def test_as_dict_is_copy(self):
        c = Counter()
        c.add("x")
        d = c.as_dict()
        d["x"] = 99
        assert c.get("x") == 1

    def test_as_dict_is_sorted(self):
        """Counters are read by key: whatever order the keys were first
        added in, the copy lists them sorted."""
        c = Counter()
        for name in ("misses", "accesses", "hits", "dgroup_accesses"):
            c.add(name)
        assert list(c.as_dict()) == ["accesses", "dgroup_accesses", "hits", "misses"]


class TestDistribution:
    def test_fractions_sum_to_one(self):
        d = Distribution()
        d.add(0, 3)
        d.add(1, 1)
        fr = d.fractions()
        assert fr[0] == pytest.approx(0.75)
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_empty_distribution(self):
        d = Distribution()
        assert d.total == 0
        assert d.fractions() == {}

    def test_items_sorted(self):
        d = Distribution()
        d.add(3)
        d.add(1)
        d.add(2)
        assert [k for k, _ in d.items()] == [1, 2, 3]


class TestFoldSum:
    def test_adds_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16; compensated summation (the
        # builtin sum from Python 3.12 on) would return 1.0.
        assert fold_sum([1e16, 1.0, -1e16]) == 0.0

    def test_start(self):
        assert fold_sum([], 2.5) == 2.5
        assert fold_sum([1, 2], 3) == 6
