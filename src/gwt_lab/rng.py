"""Reproducible random-number streams.

A stream is ``numpy.random.SeedSequence`` keyed by ``(seed, stream_id)`` as its
entropy and, below that top-level stream, by its path of child indices as its
spawn key. The same key reproduces the same sequence bit for bit, independent
of process or thread layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_integer

_MASK64 = (1 << 64) - 1


def _words(path: tuple[int, ...]) -> list[int]:
    """Each index as exactly two uint32 words, low then high, so the words are one-to-one with the path."""
    return [w for k in path for w in (k & 0xFFFFFFFF, k >> 32)]


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible stream of randomness.

    ``seed`` and ``stream_id`` and each entry of ``path``, the child indices
    below the top-level stream, are integers in 0..2**64 - 1. Numpy pads the
    entropy to its pool before it appends a non-empty spawn key, so no child
    equals a top-level stream. Unmended: the entropy writes ``seed`` and
    ``stream_id`` as their shortest runs of 32-bit words, so two top-level
    streams can collide: ``RngStream(2**32, 0)`` draws like ``RngStream(0, 1)``,
    and so do their children.
    """

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            require_integer(name, getattr(self, name), low=0, high=_MASK64)
        if not isinstance(self.path, tuple):
            raise ParameterError(f"path must be a tuple of child indices, got {self.path!r}")
        for k in self.path:
            require_integer("path entry", k, low=0, high=_MASK64)
        object.__setattr__(self, "path", tuple(int(k) for k in self.path))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=[int(self.seed), int(self.stream_id)], spawn_key=_words(self.path))
        )

    def child(self, k: int) -> "RngStream":
        """The child stream ``k``, for fanning out sub-tasks; ``k`` is an integer in 0..2**64 - 1."""
        require_integer("k", k, low=0, high=_MASK64)
        return RngStream(self.seed, self.stream_id, (*self.path, k))
