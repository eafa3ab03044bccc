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


@pytest.mark.parametrize("k", [-1, 2**64, 1.5, True, "1"])
def test_child_refuses_an_index_that_aliases_another_stream(k):
    """-1 and 2**64 do not fit the two uint32 words an index is written as; 1.5, True and "1" are not integers."""
    with pytest.raises(ParameterError):
        RngStream(1).child(k)


@pytest.mark.parametrize("path", [[1], (-1,), (2**64,), (1.0,), (True,), 3])
def test_path_must_be_a_tuple_of_64_bit_indices(path):
    with pytest.raises(ParameterError):
        RngStream(1, 0, path)


def test_children_in_range_are_distinct_streams():
    parent = RngStream(1)
    children = {parent.child(k) for k in (0, 1, 18, 2**64 - 2, 2**64 - 1)}
    assert len(children) == 5 and parent not in children
    assert parent.child(np.uint64(3)) == parent.child(3)


def first_draws(stream: RngStream) -> np.ndarray:
    return stream.generator().random(4)


def test_no_stream_is_its_own_child():
    """Under the old 64-bit id mixer, stream (7, 1) was its own child at this k."""
    parent = RngStream(7, 1)
    child = parent.child(13005770601363277260)
    assert child != parent
    assert not np.array_equal(first_draws(child), first_draws(parent))


def test_a_grandchild_is_no_child_of_the_root():
    """Under the old mixer, child 7363009660794038057 of seed 7 was its grandchild (1, 5)."""
    root = RngStream(7)
    assert root.child(7363009660794038057) != root.child(1).child(5)
    assert not np.array_equal(first_draws(root.child(7363009660794038057)), first_draws(root.child(1).child(5)))


def test_child_indices_are_written_at_a_fixed_width():
    """A plain spawn key would write both paths as the words [1, 5]."""
    root = RngStream(7)
    assert not np.array_equal(first_draws(root.child(1 + 5 * 2**32)), first_draws(root.child(1).child(5)))


def test_top_level_streams_keep_the_bits_of_a_plain_seed_sequence():
    """A stream with no path feeds SeedSequence exactly (seed, stream_id), so top-level draws never move."""
    expected = np.random.default_rng(np.random.SeedSequence([7, 3])).random(4)
    assert np.array_equal(first_draws(RngStream(7, 3)), expected)
