"""Deterministic random substreams derived from one root seed.

Streams are keyed by (purpose, indices...) through a keyed hash into a
counter-based Philox generator. Any stream can be reconstructed without
drawing from any other stream, so per-client work keeps identical results
whether clients are simulated sequentially or in parallel.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _PhiloxKey(bytes, ISeedSequence):
    """A 128-bit key as the two little-endian words Philox asks for: the state
    of ``Philox(key=int)``, without the OS entropy ``key=`` draws and drops."""

    def generate_state(self, n_words, dtype=np.uint64):
        return np.frombuffer(self, "<u8", n_words)


def substream(root_seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Return the generator uniquely identified by (root_seed, purpose, indices)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<q", int(root_seed)))
    h.update(purpose.encode("utf-8"))
    for index in indices:
        h.update(struct.pack("<q", int(index)))
    return np.random.Generator(np.random.Philox(_PhiloxKey(h.digest())))
