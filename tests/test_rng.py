import hashlib
import random
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_substream(root_seed, purpose, *indices):
    """The stream as ``Philox(key=int)`` builds it from the same blake2b key."""
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<q", root_seed))
    h.update(purpose.encode("utf-8"))
    for index in indices:
        h.update(struct.pack("<q", index))
    return np.random.Generator(np.random.Philox(key=int.from_bytes(h.digest(), "little")))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**63 - 1),
    purpose=st.text(),
    indices=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=3),
)
def test_matches_philox_keyed_by_int(seed, purpose, indices):
    got, want = substream(seed, purpose, *indices), reference_substream(seed, purpose, *indices)
    state, expected = got.bit_generator.state, want.bit_generator.state
    assert state.keys() == expected.keys() and state["state"].keys() == expected["state"].keys()
    for key, value in expected["state"].items():
        assert np.array_equal(state["state"][key], value)
    for key in expected.keys() - {"state"}:
        assert np.array_equal(state[key], expected[key])
    assert got.random(3).tobytes() == want.random(3).tobytes()
    assert got.integers(0, 2**63, 5).tobytes() == want.integers(0, 2**63, 5).tobytes()
    assert got.permutation(9).tobytes() == want.permutation(9).tobytes()


def test_no_entropy_drawn(monkeypatch):
    """A stream is a function of its key alone: building one asks the OS for
    no randomness (``Philox(key=int)`` seeds, then drops, a SeedSequence)."""
    def refuse(n):
        raise AssertionError("substream drew OS entropy")

    monkeypatch.setattr(random, "_urandom", refuse)
    substream(3, "round.batch", 1, 2).random()
