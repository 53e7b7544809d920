import numpy as np

from fedmetasim import substream


def test_same_key_same_sequence():
    a = substream(7, "round.batch", 3, 11).random(16)
    b = substream(7, "round.batch", 3, 11).random(16)
    assert np.array_equal(a, b)


def test_distinct_keys_distinct_sequences():
    base = substream(7, "round.batch", 3, 11).random(8)
    assert not np.array_equal(base, substream(8, "round.batch", 3, 11).random(8))
    assert not np.array_equal(base, substream(7, "round.sample", 3, 11).random(8))
    assert not np.array_equal(base, substream(7, "round.batch", 4, 11).random(8))
    assert not np.array_equal(base, substream(7, "round.batch", 3, 12).random(8))


def test_streams_independent_of_draw_order():
    # Drawing from one stream must not affect another: reconstruct stream B
    # before and after consuming stream A.
    first = substream(5, "a").random(4)
    b1 = substream(5, "b").random(4)
    _ = substream(5, "a").random(1000)
    b2 = substream(5, "b").random(4)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(first, b1)


def test_negative_indices_allowed():
    a = substream(1, "p", -1).random(2)
    b = substream(1, "p", -1).random(2)
    assert np.array_equal(a, b)
