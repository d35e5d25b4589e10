"""Eviction-policy behaviour, including a hypothesis model check for LRU."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.lru import ApproxLRUPolicy, LRUPolicy, RandomPolicy, make_policy
from repro.common.rng import DeterministicRNG


class TestLRUPolicy:
    def test_victim_is_least_recent(self):
        p = LRUPolicy()
        for k in "abc":
            p.insert(k)
        assert p.victim() == "a"

    def test_touch_moves_to_mru(self):
        p = LRUPolicy()
        for k in "abc":
            p.insert(k)
        p.touch("a")
        assert p.victim() == "b"
        assert list(p.lru_to_mru()) == ["b", "c", "a"]

    def test_pop_victim_removes(self):
        p = LRUPolicy()
        p.insert("x")
        p.insert("y")
        assert p.pop_victim() == "x"
        assert "x" not in p
        assert len(p) == 1

    def test_remove_arbitrary(self):
        p = LRUPolicy()
        for k in "abc":
            p.insert(k)
        p.remove("b")
        assert list(p.lru_to_mru()) == ["a", "c"]

    def test_duplicate_insert_rejected(self):
        p = LRUPolicy()
        p.insert("a")
        with pytest.raises(SimulationError):
            p.insert("a")

    def test_touch_untracked_rejected(self):
        with pytest.raises(SimulationError):
            LRUPolicy().touch("ghost")

    def test_remove_untracked_rejected(self):
        with pytest.raises(SimulationError):
            LRUPolicy().remove("ghost")

    def test_victim_on_empty_rejected(self):
        with pytest.raises(SimulationError):
            LRUPolicy().victim()

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["insert", "touch", "evict"]), st.integers(0, 9)),
            max_size=200,
        )
    )
    def test_matches_reference_model(self, ops):
        """LRUPolicy agrees with a list-based reference implementation."""
        policy = LRUPolicy()
        model = []  # front = LRU
        for op, key in ops:
            if op == "insert" and key not in model:
                policy.insert(key)
                model.append(key)
            elif op == "touch" and key in model:
                policy.touch(key)
                model.remove(key)
                model.append(key)
            elif op == "evict" and model:
                assert policy.pop_victim() == model.pop(0)
        assert list(policy.lru_to_mru()) == model


class TestRandomPolicy:
    def _policy(self):
        return RandomPolicy(DeterministicRNG(1, "rand"))

    def test_tracks_membership(self):
        p = self._policy()
        p.insert(1)
        p.insert(2)
        assert 1 in p and 2 in p and 3 not in p
        assert len(p) == 2

    def test_victim_is_member(self):
        p = self._policy()
        for k in range(10):
            p.insert(k)
        for _ in range(20):
            v = p.pop_victim()
            assert v not in p
            p.insert(v)

    def test_victim_peek_is_stable_until_removal(self):
        p = self._policy()
        for k in range(10):
            p.insert(k)
        first = p.victim()
        assert p.victim() == first

    def test_swap_remove_consistency(self):
        p = self._policy()
        for k in range(5):
            p.insert(k)
        p.remove(2)
        assert 2 not in p
        assert len(p) == 4
        remaining = set()
        while len(p):
            remaining.add(p.pop_victim())
        assert remaining == {0, 1, 3, 4}

    def test_selection_covers_all_members(self):
        p = self._policy()
        for k in range(8):
            p.insert(k)
        seen = set()
        for _ in range(300):
            v = p.pop_victim()
            seen.add(v)
            p.insert(v)
        assert seen == set(range(8))

    def test_duplicate_insert_rejected(self):
        p = self._policy()
        p.insert(1)
        with pytest.raises(SimulationError):
            p.insert(1)

    def test_empty_victim_rejected(self):
        with pytest.raises(SimulationError):
            self._policy().victim()


class TestApproxLRUPolicy:
    def test_second_chance_protects_touched(self):
        p = ApproxLRUPolicy()
        for k in "abcd":
            p.insert(k)
        # All reference bits set; first full sweep clears them, so the
        # victim is the key at the hand once bits are clear.
        v1 = p.pop_victim()
        assert v1 in "abcd"
        p.insert(v1)
        remaining = [k for k in "abcd" if k != v1]
        p.touch(remaining[0])
        assert len(p) == 4

    def test_cleared_bit_evicted_before_fresh_insert(self):
        p = ApproxLRUPolicy()
        for k in "ab":
            p.insert(k)
        # The first sweep clears both bits and evicts one key; after
        # reinserting it (bit set), the survivor's bit is still clear,
        # so the survivor must be the next victim.
        first = p.pop_victim()
        survivor = "a" if first == "b" else "b"
        p.insert(first)
        assert p.pop_victim() == survivor

    def test_remove_repositions_hand(self):
        p = ApproxLRUPolicy()
        for k in range(5):
            p.insert(k)
        p.remove(4)
        assert len(p) == 4
        assert p.pop_victim() in range(4)

    def test_errors(self):
        p = ApproxLRUPolicy()
        with pytest.raises(SimulationError):
            p.victim()
        with pytest.raises(SimulationError):
            p.touch(1)
        p.insert(1)
        with pytest.raises(SimulationError):
            p.insert(1)


class TestMakePolicy:
    def test_builds_each_kind(self, rng):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("approx-lru"), ApproxLRUPolicy)
        assert isinstance(make_policy("random", rng), RandomPolicy)

    def test_random_requires_rng(self):
        with pytest.raises(ValueError):
            make_policy("random")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("clairvoyant")


@pytest.mark.parametrize("kind", ["lru", "random", "approx-lru"])
class TestInsertMany:
    def test_equals_insert_per_key(self, kind, rng):
        bulk, single = make_policy(kind, rng), make_policy(kind, rng)
        bulk.insert("a")
        single.insert("a")
        bulk.insert_many("bcd")
        for key in "bcd":
            single.insert(key)
        assert bulk.state_copy() == single.state_copy()

    @pytest.mark.parametrize("keys", ["bcb", "bca"])
    def test_duplicate_rejected(self, kind, rng, keys):
        p = make_policy(kind, rng)
        p.insert("a")
        with pytest.raises(SimulationError):
            p.insert_many(keys)
