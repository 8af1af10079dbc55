"""Zipfian popularity distribution.

Datacenter object popularity is heavily skewed (Sec. II-A); the paper
models data accesses with an analytical Zipfian distribution calibrated
so benchmarks miss the 3 %-capacity DRAM cache every 5-25 us.  This
module provides an exact inverse-CDF Zipfian sampler over ``n`` items
with optional permutation (so popular items spread uniformly over the
page space instead of clustering in low page numbers / cache sets).
"""

from __future__ import annotations

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
        self._rng = np.random.default_rng(seed)
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if permute:
            self._permutation: Optional[np.ndarray] = \
                self._rng.permutation(n)
        else:
            self._permutation = None
        # The batch buffer holds plain Python ints: per-sample numpy
        # scalar extraction (`int(ndarray[i])`) costs more than the
        # whole one-off `tolist()` conversion at refill time.
        self._buffer: list = []
        self._cursor = 0

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

    def sample_array(self, count: int) -> np.ndarray:
        """``count`` item indices as a numpy array."""
        uniforms = self._rng.random(count)
        ranks = np.searchsorted(self._cdf, uniforms, side="left")
        if self._permutation is not None:
            ranks = self._permutation[ranks]
        return ranks

    def coverage(self, fraction: float) -> float:
        """Probability mass captured by the hottest ``fraction`` of
        items — the analytic hit rate of a perfectly-managed cache of
        that size (Fig. 1's idealized form)."""
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("coverage fraction out of (0, 1]")
        top_k = max(1, int(self.n * fraction))
        return float(self._cdf[top_k - 1])

    def rank_of(self, item: int) -> int:
        """Popularity rank (0 = hottest) of an item index."""
        if self._permutation is None:
            return item
        # Invert the permutation lazily.
        if not hasattr(self, "_inverse"):
            inverse = np.empty(self.n, dtype=np.int64)
            inverse[self._permutation] = np.arange(self.n)
            self._inverse = inverse
        return int(self._inverse[item])
