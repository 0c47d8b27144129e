"""Unit + property tests for CONGEST message costing."""

import pytest
from hypothesis import given, strategies as st

from repro.simnet.message import ID_BITS, NodeId, bit_size


class TestScalars:
    def test_none_is_one_bit(self):
        assert bit_size(None) == 1

    def test_bool_is_one_bit(self):
        assert bit_size(True) == 1
        assert bit_size(False) == 1

    def test_int_uses_bit_length(self):
        assert bit_size(0) == 2          # max(1, 0) + 1
        assert bit_size(1) == 2
        assert bit_size(255) == 9
        assert bit_size(-255) == 9

    def test_float_is_64(self):
        assert bit_size(3.14) == 64

    def test_node_id_charged_fixed_width(self):
        assert bit_size(NodeId(3)) == ID_BITS
        assert bit_size(NodeId(10**9)) == ID_BITS

    def test_node_id_default_width(self):
        assert ID_BITS == 32
        assert bit_size(NodeId(3)) == 32


class TestContainers:
    def test_tuple_sums_plus_framing(self):
        assert bit_size((True, True)) == 8 + 1 + 1

    def test_nested(self):
        inner = bit_size((NodeId(1),))
        assert inner == 8 + ID_BITS
        assert bit_size(((NodeId(1),),)) == 8 + inner

    def test_dict_counts_keys_and_values(self):
        assert bit_size({True: False}) == 8 + 1 + 1

    def test_bytes_and_str(self):
        assert bit_size(b"ab") == 16 + 8
        assert bit_size("ab") == 16 + 8

    def test_set_and_frozenset(self):
        assert bit_size(frozenset([True])) == 8 + 1


class TestCustom:
    def test_msg_bits_hook(self):
        class Msg:
            def __msg_bits__(self):
                return 17

        assert bit_size(Msg()) == 17

    def test_msg_bits_must_be_nonneg_int(self):
        class Bad:
            def __msg_bits__(self):
                return -1

        with pytest.raises(TypeError):
            bit_size(Bad())

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="unsupported message type"):
            bit_size(object())


class TestProperties:
    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_int_cost_positive_and_monotone_in_magnitude(self, x):
        cost = bit_size(x)
        assert cost >= 2
        assert bit_size(x * 2) >= cost - 1  # doubling can't shrink much

    @given(st.lists(st.integers(min_value=0, max_value=2**30), max_size=20))
    def test_container_cost_exceeds_content(self, xs):
        total = bit_size(tuple(xs))
        assert total == 8 + sum(bit_size(x) for x in xs)

    @given(st.integers(min_value=0, max_value=2**40))
    def test_node_id_always_charged_id_bits(self, value):
        assert bit_size(NodeId(value)) == ID_BITS
