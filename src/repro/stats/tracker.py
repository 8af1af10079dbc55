"""Latency and throughput trackers for experiment measurement windows.

Experiments run with a warmup phase followed by a measurement window;
the trackers only record samples once :meth:`start_measurement` has
been called so warmup transients do not pollute the results.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.errors import ReproError
from repro.units import SECOND


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


class LatencyTracker:
    """Records per-request latencies inside the measurement window.

    Every sample is kept, so percentiles are exact.  The sample sum is
    maintained incrementally so :meth:`mean` is O(1) instead of
    re-reducing the whole sample list on every call (the harness reads
    means per report row, inside sweeps).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted = True
        self._sum = 0.0
        self._measuring = False

    def start_measurement(self) -> None:
        """Open the measurement window.

        Opening (or re-opening) the window discards previously recorded
        samples, so a restarted window never leaks data from an earlier
        one.
        """
        self._samples = []
        self._sorted = True
        self._sum = 0.0
        self._measuring = True

    def record(self, latency_ns: float) -> None:
        if self._measuring:
            samples = self._samples
            if samples and latency_ns < samples[-1]:
                self._sorted = False
            samples.append(latency_ns)
            self._sum += latency_ns

    @property
    def count(self) -> int:
        return len(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            # Re-sync the running sum to the new element order: float
            # addition is not associative, and mean() must equal a
            # left-to-right sum of the sample list.  Re-summing here
            # (already O(n log n) for the sort) keeps it bitwise equal
            # while staying O(1) per call.
            self._sum = sum(self._samples)
            self._sorted = True

    def mean(self) -> float:
        if not self._samples:
            raise ReproError("mean of empty sample set")
        return self._sum / len(self._samples)

    def percentile(self, fraction: float) -> float:
        self._ensure_sorted()
        return percentile(self._samples, fraction)

    def p50(self) -> float:
        return self.percentile(0.50)

    def p99(self) -> float:
        return self.percentile(0.99)

    def samples(self) -> List[float]:
        """A sorted copy of the recorded samples.

        The censoring correction in :mod:`repro.core.runner` merges
        unfinished-job ages into it.
        """
        self._ensure_sorted()
        return list(self._samples)


class ThroughputTracker:
    """Counts completions over the measurement window and reports a rate."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._completions = 0
        self._window_start: Optional[float] = None
        self._window_end: Optional[float] = None

    def start_measurement(self, now_ns: float) -> None:
        """Open (or re-open) the window; a restart drops earlier counts."""
        self._window_start = now_ns
        self._window_end = None
        self._completions = 0

    def stop_measurement(self, now_ns: float) -> None:
        if self._window_start is None:
            raise ReproError("stop_measurement before start_measurement")
        self._window_end = now_ns

    def record_completion(self, count: int = 1) -> None:
        if self._window_start is not None and self._window_end is None:
            self._completions += count

    @property
    def completions(self) -> int:
        return self._completions

    def rate_per_second(self) -> float:
        """Completions per second of simulated time."""
        if self._window_start is None or self._window_end is None:
            raise ReproError("throughput window not closed")
        elapsed = self._window_end - self._window_start
        if elapsed <= 0:
            raise ReproError("empty measurement window")
        return self._completions / (elapsed / SECOND)
