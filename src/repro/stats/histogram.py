"""Latency histograms and percentile estimation.

Two implementations:

* :class:`ExactReservoir` — stores every sample; exact percentiles.
  Used for service-time distributions where sample counts are modest.
* :class:`LogHistogram` — HdrHistogram-style logarithmic bucketing with
  bounded error; used for long tail-latency sweeps where millions of
  samples may be recorded.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from repro.errors import ReproError


def percentile(sorted_samples: Sequence[float], fraction: float) -> float:
    """Exact percentile (nearest-rank with linear interpolation) of a
    pre-sorted sequence.

    ``fraction`` is in [0, 1]; e.g. 0.99 for the 99th percentile.
    """
    if not sorted_samples:
        raise ReproError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ReproError(f"percentile fraction out of range: {fraction}")
    if len(sorted_samples) == 1:
        return float(sorted_samples[0])
    rank = fraction * (len(sorted_samples) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(sorted_samples[low])
    weight = rank - low
    return float(sorted_samples[low]) * (1 - weight) + float(sorted_samples[high]) * weight


class ExactReservoir:
    """Stores all samples for exact statistics.

    The sample sum is maintained incrementally so :meth:`mean` is O(1)
    instead of re-reducing the whole reservoir on every call (the
    harness reads means per report row, inside sweeps).
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True
        self._sum = 0.0

    def record(self, value: float) -> None:
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)
        self._sum += value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            # Re-sync the running sum to the new element order: float
            # addition is not associative, and the pre-optimization
            # mean() summed the materialized list left to right.
            # Re-summing here (already O(n log n) for the sort) keeps
            # mean() bit-identical to that behaviour while staying
            # O(1) per call.
            self._sum = sum(self._samples)
            self._sorted = True

    def percentile(self, fraction: float) -> float:
        self._ensure_sorted()
        return percentile(self._samples, fraction)

    def mean(self) -> float:
        if not self._samples:
            raise ReproError("mean of empty sample set")
        return self._sum / len(self._samples)

    def min(self) -> float:
        self._ensure_sorted()
        if not self._samples:
            raise ReproError("min of empty sample set")
        return self._samples[0]

    def max(self) -> float:
        self._ensure_sorted()
        if not self._samples:
            raise ReproError("max of empty sample set")
        return self._samples[-1]

    def samples(self) -> List[float]:
        """A sorted copy of all recorded samples."""
        self._ensure_sorted()
        return list(self._samples)


class LogHistogram:
    """Logarithmically-bucketed histogram with bounded relative error.

    Values are assigned to bucket ``floor(log(value, base))`` with
    ``sub`` linear sub-buckets per decade step, giving a worst-case
    relative error of roughly ``base**(1/sub) - 1``.

    ``record`` is the per-event hot path: the bucket math is inlined
    (no helper-call indirection) and the divide by ``log_base`` is a
    precomputed ``1/log_base`` multiply.  ``percentile`` walks a cached
    sorted key list, invalidated only when ``record``/``merge``
    introduces a *new* bucket.
    """

    def __init__(self, min_value: float = 1.0, precision: int = 64) -> None:
        if min_value <= 0:
            raise ReproError("LogHistogram min_value must be positive")
        if precision < 2:
            raise ReproError("LogHistogram precision must be >= 2")
        self._min_value = min_value
        self._precision = precision
        self._log_base = math.log(2.0) / precision  # sub-buckets per octave
        self._inv_log_base = 1.0 / self._log_base
        self._buckets: dict = {}
        self._sorted_keys: Optional[List[int]] = []
        self._count = 0
        self._sum = 0.0
        self._max = float("-inf")
        self._min = float("inf")

    def _bucket_value(self, index: int) -> float:
        # Midpoint of the bucket in log space.
        return self._min_value * math.exp((index + 0.5) * self._log_base)

    def record(self, value: float) -> None:
        min_value = self._min_value
        clamped = value if value > min_value else min_value
        index = int(math.log(clamped / min_value) * self._inv_log_base)
        buckets = self._buckets
        count = buckets.get(index)
        if count is None:
            buckets[index] = 1
            self._sorted_keys = None
        else:
            buckets[index] = count + 1
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        if self._count == 0:
            raise ReproError("mean of empty histogram")
        return self._sum / self._count

    def max(self) -> float:
        if self._count == 0:
            raise ReproError("max of empty histogram")
        return self._max

    def min(self) -> float:
        if self._count == 0:
            raise ReproError("min of empty histogram")
        return self._min

    def _bucket_keys(self) -> List[int]:
        keys = self._sorted_keys
        if keys is None:
            keys = self._sorted_keys = sorted(self._buckets)
        return keys

    def percentile(self, fraction: float) -> float:
        if self._count == 0:
            raise ReproError("percentile of empty histogram")
        if not 0.0 <= fraction <= 1.0:
            raise ReproError(f"percentile fraction out of range: {fraction}")
        target = fraction * self._count
        seen = 0
        buckets = self._buckets
        for index in self._bucket_keys():
            seen += buckets[index]
            if seen >= target:
                return min(self._bucket_value(index), self._max)
        return self._max

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other``'s samples into this histogram (same params)."""
        if other._precision != self._precision or other._min_value != self._min_value:
            raise ReproError("cannot merge histograms with different parameters")
        buckets = self._buckets
        for index, count in other._buckets.items():
            existing = buckets.get(index)
            if existing is None:
                buckets[index] = count
                self._sorted_keys = None
            else:
                buckets[index] = existing + count
        self._count += other._count
        self._sum += other._sum
        if other._count:
            self._max = max(self._max, other._max)
            self._min = min(self._min, other._min)
