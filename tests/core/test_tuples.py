"""Tests for region tuples and tuple arrays (Definitions 4-6, Lemma 6 dominance)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tuples import RegionTuple, TupleArray


def tuple_strategy():
    return st.builds(
        RegionTuple,
        length=st.floats(0, 100, allow_nan=False),
        weight=st.floats(0, 10, allow_nan=False),
        scaled_weight=st.integers(0, 50),
        nodes=st.frozensets(st.integers(0, 30), min_size=1, max_size=6),
        edges=st.just(frozenset()),
    )


class TestRegionTuple:
    def test_singleton(self):
        t = RegionTuple.singleton(3, 0.7, 12)
        assert t.length == 0.0
        assert t.nodes == frozenset({3})
        assert t.edges == frozenset()
        assert t.scaled_weight == 12

    def test_combine_disjoint(self):
        a = RegionTuple.singleton(1, 0.5, 5)
        b = RegionTuple.singleton(2, 0.3, 3)
        combined = a.combine(b, 1, 2, 4.0)
        assert combined.length == pytest.approx(4.0)
        assert combined.weight == pytest.approx(0.8)
        assert combined.scaled_weight == 8
        assert combined.nodes == frozenset({1, 2})
        assert combined.edges == frozenset({(1, 2)})

    def test_combine_accumulates_lengths(self):
        a = RegionTuple(2.0, 0.5, 5, frozenset({1, 2}), frozenset({(1, 2)}))
        b = RegionTuple.singleton(3, 0.1, 1)
        combined = a.combine(b, 2, 3, 1.5)
        assert combined.length == pytest.approx(3.5)
        assert combined.edges == frozenset({(1, 2), (2, 3)})

    def test_shares_nodes_with(self):
        a = RegionTuple.singleton(1, 0.5, 5)
        b = RegionTuple.singleton(1, 0.5, 5)
        c = RegionTuple.singleton(2, 0.5, 5)
        assert a.shares_nodes_with(b)
        assert not a.shares_nodes_with(c)

    def test_to_region(self):
        a = RegionTuple(1.5, 0.7, 7, frozenset({1, 2}), frozenset({(1, 2)}))
        region = a.to_region()
        assert region.weight == pytest.approx(0.7)
        assert region.length == pytest.approx(1.5)

    def test_better_than_ordering(self):
        heavy = RegionTuple.singleton(1, 1.0, 10)
        light = RegionTuple.singleton(2, 0.5, 5)
        assert heavy.better_than(light)
        assert not light.better_than(heavy)
        assert heavy.better_than(None)
        # Equal scaled weight: larger original weight wins; then shorter length.
        long_one = RegionTuple(5.0, 1.0, 10, frozenset({3}), frozenset())
        short_one = RegionTuple(1.0, 1.0, 10, frozenset({4}), frozenset())
        assert short_one.better_than(long_one)


class TestTupleArray:
    def test_update_keeps_shortest_per_key(self):
        array = TupleArray()
        long_tuple = RegionTuple(5.0, 1.0, 10, frozenset({1}), frozenset())
        short_tuple = RegionTuple(2.0, 1.0, 10, frozenset({2}), frozenset())
        assert array.update(long_tuple)
        assert array.update(short_tuple)
        assert not array.update(long_tuple)
        assert array.tuples() == [short_tuple]
        assert len(array) == 1

    @settings(max_examples=50, deadline=None)
    @given(tuples=st.lists(tuple_strategy(), min_size=0, max_size=40))
    def test_per_key_minimality_invariant(self, tuples):
        array = TupleArray()
        for candidate in tuples:
            array.update(candidate)
        # For every scaled weight, the stored tuple must be the shortest ever offered.
        best_by_key = {}
        for candidate in tuples:
            current = best_by_key.get(candidate.scaled_weight)
            if current is None or candidate.length < current:
                best_by_key[candidate.scaled_weight] = candidate.length
        stored = {entry.scaled_weight: entry for entry in array.tuples()}
        assert stored.keys() == best_by_key.keys()
        for key, expected_length in best_by_key.items():
            assert stored[key].length == pytest.approx(expected_length)
