"""LRU set-policy behaviour, including a hypothesis model check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.lru import LRUPolicy

#: Set policies with a bulk ``insert_many``, by name.
POLICIES = {"lru": LRUPolicy}


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


@pytest.mark.parametrize("kind", ["lru"])
class TestInsertMany:
    def test_equals_insert_per_key(self, kind):
        bulk, single = POLICIES[kind](), POLICIES[kind]()
        bulk.insert("a")
        single.insert("a")
        bulk.insert_many("bcd")
        for key in "bcd":
            single.insert(key)
        assert list(bulk.lru_to_mru()) == list(single.lru_to_mru())

    @pytest.mark.parametrize("keys", ["bcb", "bca"])
    def test_duplicate_rejected(self, kind, keys):
        p = POLICIES[kind]()
        p.insert("a")
        with pytest.raises(SimulationError):
            p.insert_many(keys)
