"""Deterministic, splittable random number streams.

All samplers take an :class:`RngStream` rather than a bare seed so that
parallel simulation can hand every task its own statistically independent
stream while the overall result stays bit-identical for a fixed root seed,
regardless of how work is scheduled.

A :class:`StreamTable` keeps the seeded PCG64 states of the streams
``RngStream(seed, i)``, ``i = 0, 1, ...``, so a caller that reads the same
streams many times (one null table per probed alpha) builds each one once
and then only repositions a single generator with :func:`replay`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .exceptions import ParameterError

__all__ = ["RngStream", "StreamTable", "replay"]

_WORD = (1 << 64) - 1


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
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= int(self.seed) < 2**64:
            raise ParameterError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
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


class StreamTable:
    """Seeded PCG64 states of the streams ``RngStream(seed, i)``, built once per row.

    Row ``i`` holds the high and low 64-bit words of the state and of the
    increment of ``RngStream(seed, i).generator()``.  The table grows when
    more rows are asked for and never changes a row it holds.
    """

    def __init__(self, seed: int):
        RngStream(seed)  # validates the seed
        self.seed = int(seed)
        self._states = np.empty((0, 4), dtype=np.uint64)

    def states(self, count: int) -> np.ndarray:
        """The first ``count`` rows, shape ``(count, 4)``, building the missing ones."""
        have = len(self._states)
        if count > have:
            new = np.empty((count - have, 4), dtype=np.uint64)
            for i in range(have, count):
                pcg = RngStream(self.seed, i).generator().bit_generator.state["state"]
                state, inc = pcg["state"], pcg["inc"]
                new[i - have] = (state >> 64, state & _WORD, inc >> 64, inc & _WORD)
            self._states = np.concatenate([self._states, new])
        return self._states[:count]


def replay(states: np.ndarray) -> Iterator[np.random.Generator]:
    """Yield one generator positioned, in turn, at the start of each row's stream.

    The same generator object is repositioned for every row, so each must
    be read before the next is taken.  It draws exactly what
    ``RngStream(seed, i).generator()`` draws for the row's stream.
    """
    gen = np.random.Generator(np.random.PCG64())
    bit_generator = gen.bit_generator
    for state_hi, state_lo, inc_hi, inc_lo in map(np.ndarray.tolist, states):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen
