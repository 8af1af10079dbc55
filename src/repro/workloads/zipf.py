"""Zipfian popularity distribution.

Datacenter object popularity is heavily skewed (Sec. II-A); the paper
models data accesses with an analytical Zipfian distribution calibrated
so benchmarks miss the 3 %-capacity DRAM cache every 5-25 us.  This
module provides an exact inverse-CDF Zipfian sampler over ``n`` items
with optional permutation (so popular items spread uniformly over the
page space instead of clustering in low page numbers / cache sets).
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


class ZipfianGenerator:
    """Samples item indices with P(rank k) proportional to 1/k^s."""

    BATCH = 8192

    def __init__(self, n: int, s: float = 1.3, seed: int = 42,
                 permute: bool = True) -> None:
        if n < 1:
            raise ConfigurationError("Zipfian needs at least one item")
        if s < 0:
            raise ConfigurationError("Zipfian exponent must be non-negative")
        self.n = n
        self.s = s
        self.permute = permute
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._start(seed)

    def _start(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        # The permutation is the stream's first draw.
        self._permutation: Optional[np.ndarray] = \
            self._rng.permutation(self.n) if self.permute else None
        # The batch buffer holds plain Python ints: per-sample numpy
        # scalar extraction (`int(ndarray[i])`) costs more than the
        # whole one-off `tolist()` conversion at refill time.
        self._buffer: list = []
        self._cursor = 0

    def fork(self, seed: int) -> "ZipfianGenerator":
        """A sampler sharing this one's CDF table (fixed by ``n`` and
        ``s``) with its own stream, which draws exactly what
        ``ZipfianGenerator(n, s, seed, permute)`` would."""
        fork = copy.copy(self)
        fork._start(seed)
        return fork

    def getstate(self) -> tuple:
        """The stream's position (the seed fixes the permutation)."""
        return (self._rng.bit_generator.state, self._buffer, self._cursor)

    def setstate(self, state: tuple) -> None:
        """Resume at a :meth:`getstate` position of a same-seed stream."""
        self._rng.bit_generator.state, self._buffer, self._cursor = state

    def _refill(self) -> None:
        uniforms = self._rng.random(self.BATCH)
        ranks = np.searchsorted(self._cdf, uniforms, side="left")
        if self._permutation is not None:
            ranks = self._permutation[ranks]
        self._buffer = ranks.tolist()
        self._cursor = 0

    def sample(self) -> int:
        """One item index in [0, n)."""
        cursor = self._cursor
        buffer = self._buffer
        if cursor >= len(buffer):
            self._refill()
            cursor = 0
            buffer = self._buffer
        self._cursor = cursor + 1
        return buffer[cursor]
