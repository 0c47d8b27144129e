"""Property-based tests: the aggregate laws every Aggregate must satisfy.

Merging partial views in any order, any number of times, must yield the
same result — that is what makes "broadcast your state, merge what you
hear" correct in an adversarial dynamic network.  Hypothesis drives
random states through commutativity / associativity / idempotence, plus
encode/decode round-trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import (
    IdSetAggregate,
    MaxAggregate,
    MinVectorAggregate,
    ProductAggregate,
)
from repro.core.consensus import MinPairAggregate
from repro.simnet.message import NodeId

ints = st.integers(min_value=-(10**6), max_value=10**6)
int_sets = st.frozensets(st.integers(min_value=0, max_value=200), max_size=12)
pairs = st.tuples(st.integers(min_value=0, max_value=10**6), ints)


def vectors(width=4):
    return st.lists(
        st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
        min_size=width, max_size=width,
    ).map(lambda xs: np.asarray(xs, dtype=np.float64))


AGGREGATE_CASES = [
    (MaxAggregate(), ints),
    (IdSetAggregate(), int_sets),
    (MinPairAggregate(), pairs),
    (MinVectorAggregate(4), vectors(4)),
    (ProductAggregate(IdSetAggregate(), MinVectorAggregate(4)),
     st.tuples(int_sets, vectors(4))),
]


@pytest.mark.parametrize("agg,strategy",
                         AGGREGATE_CASES,
                         ids=lambda case: type(case).__name__)
class TestAggregateLaws:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_commutative(self, agg, strategy, data):
        a, b = data.draw(strategy), data.draw(strategy)
        assert agg.equals(agg.merge(a, b), agg.merge(b, a))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_idempotent(self, agg, strategy, data):
        a = data.draw(strategy)
        assert agg.equals(agg.merge(a, a), a)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_associative(self, agg, strategy, data):
        a, b, c = (data.draw(strategy) for _ in range(3))
        left = agg.merge(agg.merge(a, b), c)
        right = agg.merge(a, agg.merge(b, c))
        assert agg.equals(left, right)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_none_is_identity(self, agg, strategy, data):
        a = data.draw(strategy)
        assert agg.equals(agg.merge(a, None), a)
        assert agg.equals(agg.merge(None, a), a)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_encode_decode_roundtrip(self, agg, strategy, data):
        a = data.draw(strategy)
        assert agg.equals(agg.decode(agg.encode(a)), a)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_merge_of_many_orders_agree(self, agg, strategy, data):
        """Merging a multiset of states in two random orders agrees."""
        states = [data.draw(strategy) for _ in range(5)]
        perm = data.draw(st.permutations(range(5)))

        def fold(order):
            acc = None
            for i in order:
                acc = agg.merge(acc, states[i])
            return acc

        assert agg.equals(fold(range(5)), fold(perm))


class TestMinVectorSpecifics:
    def test_width_validated(self):
        with pytest.raises(ValueError):
            MinVectorAggregate(0)

    def test_decode_rejects_wrong_width(self):
        agg = MinVectorAggregate(3)
        with pytest.raises(ValueError, match="width 3"):
            agg.decode((1.0, 2.0))

    def test_merge_preserves_identity_when_no_improvement(self):
        agg = MinVectorAggregate(2)
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        assert agg.merge(a, b) is a  # cheap change detection contract

    def test_equals_handles_none(self):
        agg = MinVectorAggregate(2)
        assert agg.equals(None, None)
        assert not agg.equals(None, np.zeros(2))


class TestSetUnionSpecifics:
    """Set union of node ids (`IdSetAggregate`)."""

    def test_subset_merge_preserves_identity(self):
        agg = IdSetAggregate()
        a = frozenset({1, 2, 3})
        assert agg.merge(a, frozenset({2})) is a

    def test_encode_sorted(self):
        agg = IdSetAggregate()
        assert agg.encode(frozenset({3, 1, 2})) == (1, 2, 3)

    def test_encode_tags_node_ids(self):
        encoded = IdSetAggregate().encode(frozenset({3, 1}))
        assert all(type(x) is NodeId for x in encoded)


class TestProductSpecifics:
    def test_merge_preserves_identity_when_no_part_improves(self):
        agg = ProductAggregate(IdSetAggregate(), MinVectorAggregate(2))
        a = (frozenset({1, 2, 3}), np.array([1.0, 2.0]))
        b = (frozenset({2}), np.array([3.0, 4.0]))
        assert agg.merge(a, b) is a  # AggregateNode's encode cache

    def test_merge_takes_each_part_that_improves(self):
        agg = ProductAggregate(IdSetAggregate(), MinVectorAggregate(2))
        a = (frozenset({1}), np.array([1.0, 2.0]))
        merged = agg.merge(a, (frozenset({1}), np.array([3.0, 0.5])))
        assert merged[0] is a[0]
        assert merged[1].tolist() == [1.0, 0.5]
