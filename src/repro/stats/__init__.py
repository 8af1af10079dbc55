"""Measurement utilities: counters and latency/throughput trackers."""

from repro.stats.counters import CounterSet
from repro.stats.tracker import LatencyTracker, ThroughputTracker, percentile

__all__ = [
    "CounterSet",
    "LatencyTracker",
    "ThroughputTracker",
    "percentile",
]
