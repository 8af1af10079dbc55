"""Latency and throughput trackers for experiment measurement windows.

Experiments run with a warmup phase followed by a measurement window;
the trackers only record samples once :meth:`start_measurement` has
been called so warmup transients do not pollute the results.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError
from repro.stats.histogram import ExactReservoir, LogHistogram
from repro.units import SECOND


class LatencyTracker:
    """Records per-request latencies inside the measurement window."""

    def __init__(self, exact: bool = True, name: str = "") -> None:
        self.name = name
        self._exact = exact
        self._reservoir = ExactReservoir() if exact else LogHistogram()
        self._measuring = False

    def start_measurement(self) -> None:
        """Open the measurement window.

        Opening (or re-opening) the window discards previously recorded
        samples — including warm-up samples slipped in via
        :meth:`record_always` — so a restarted window never leaks data
        from an earlier one.
        """
        self._reservoir = ExactReservoir() if self._exact else LogHistogram()
        self._measuring = True

    def stop_measurement(self) -> None:
        self._measuring = False

    @property
    def measuring(self) -> bool:
        return self._measuring

    def record(self, latency_ns: float) -> None:
        if self._measuring:
            self._reservoir.record(latency_ns)

    def record_always(self, latency_ns: float) -> None:
        """Record regardless of the measurement window (for debugging)."""
        self._reservoir.record(latency_ns)

    @property
    def count(self) -> int:
        return self._reservoir.count

    def mean(self) -> float:
        return self._reservoir.mean()

    def percentile(self, fraction: float) -> float:
        return self._reservoir.percentile(fraction)

    def p50(self) -> float:
        return self.percentile(0.50)

    def p99(self) -> float:
        return self.percentile(0.99)

    def samples(self):
        """Sorted raw samples when exact, else ``None``.

        The censoring correction in :mod:`repro.core.runner` merges
        unfinished-job ages into the recorded sample set; that needs
        the raw values, which only :class:`ExactReservoir` keeps.
        """
        if isinstance(self._reservoir, ExactReservoir):
            return self._reservoir.samples()
        return None


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
