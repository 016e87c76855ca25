"""Deterministic, splittable random number streams.

All samplers take an :class:`RngStream` rather than a bare seed so that
parallel simulation can hand every task its own statistically independent
stream while the overall result stays bit-identical for a fixed root seed,
regardless of how work is scheduled.

Stream paths in use: the Monte Carlo engine reads block ``k`` of a null
simulation from ``RngStream(seed, (2, 0, k))`` (since engine version 2), and the
power study reads replicate ``j`` of cell ``i`` from ``RngStream(seed, (i, j))``.
The two path lengths differ, so neither reads the other's draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError

__all__ = ["RngStream"]


def _check_seed(seed) -> None:
    """Raise :class:`ParameterError` unless ``seed`` is an integer in ``[0, 2**64)``."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ParameterError(f"seed must be an integer in [0, 2**64), got {seed!r}")


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream index) pair naming one reproducible variate sequence.

    Identical ``(seed, stream)`` values always produce the same draws, on
    any platform and under any degree of parallelism.  ``stream`` is a
    non-negative index, or a tuple of indices when streams are derived
    hierarchically (e.g. per simulation cell, then per replicate).
    """

    seed: int
    stream: int | tuple[int, ...] = 0

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        for idx in self.path:
            if not isinstance(idx, (int, np.integer)) or idx < 0:
                raise ParameterError(f"stream indices must be non-negative integers, got {self.stream!r}")

    @property
    def path(self) -> tuple[int, ...]:
        stream = self.stream
        if isinstance(stream, (int, np.integer)):
            return (int(stream),)
        return tuple(int(i) for i in stream)

    def child(self, *indices: int) -> "RngStream":
        """Derive an independent sub-stream by appending indices."""
        return RngStream(self.seed, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator positioned at the start of this stream."""
        return np.random.default_rng(np.random.SeedSequence(int(self.seed), spawn_key=self.path))
