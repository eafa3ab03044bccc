"""Tests for the reproducible random-number streams."""

import numpy as np
import pytest

from gwt_lab import ParameterError, RngStream


@pytest.mark.parametrize("value", [-1, 2**64, 1.0, True, "1"])
def test_seed_and_stream_id_must_fit_in_64_unsigned_bits(value):
    with pytest.raises(ParameterError):
        RngStream(value)
    with pytest.raises(ParameterError):
        RngStream(0, value)


def test_the_64_bit_bounds_are_accepted():
    assert RngStream(2**64 - 1, 0) != RngStream(np.uint64(0), np.uint64(2**64 - 1))


@pytest.mark.parametrize("k", [-1, 2**64 - 1, 2**64, 1.5, True, "1"])
def test_child_refuses_an_index_that_aliases_another_stream(k):
    """-1 and 2**64 - 1 make stream 0 its own child; 1.5 and 2**64 repeat children 1 and 0."""
    with pytest.raises(ParameterError):
        RngStream(1).child(k)


def test_children_in_range_are_distinct_streams():
    parent = RngStream(1)
    children = {parent.child(k) for k in (0, 1, 18, 2**64 - 2)}
    assert len(children) == 4 and parent not in children
    assert parent.child(np.uint64(3)) == parent.child(3)
