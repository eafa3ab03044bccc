"""Reproducible random-number streams.

Streams are keyed by a ``(seed, stream_id)`` pair fed into
``numpy.random.SeedSequence``, so distinct ids give statistically
independent generators and the same pair reproduces the identical
sequence bit for bit, independent of process or thread layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_integer

_MASK64 = (1 << 64) - 1

# splitmix64 constants, used to derive well-separated child stream ids
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(a: int, b: int) -> int:
    z = (a + _GOLDEN * (b + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible stream of randomness.

    Parameters
    ----------
    seed : int
        Master seed, 0 <= seed < 2**64.
    stream_id : int
        Sub-stream index, 0 <= stream_id < 2**64.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            require_integer(name, getattr(self, name), low=0, high=_MASK64)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=[int(self.seed), int(self.stream_id)])
        )

    def child(self, k: int) -> "RngStream":
        """Derive a well-separated child stream (for fanning out sub-tasks).

        ``k`` must be an integer in 0..2**64 - 2; any other ``k`` repeats a child, or at -1 makes
        stream 0 its own child. Each other id the mixer does not fix is still its own child at one
        ``k`` in range (id 1 at k = 13005770601363277260); mending that would change ``_mix64`` and
        move every closure digest, and the closure suite uses only children 0..18.
        """
        require_integer("k", k, low=0, high=_MASK64 - 1)
        return RngStream(self.seed, _mix64(int(self.stream_id), int(k)))
