"""Measurement utilities: counters, histograms, latency/throughput trackers."""

from repro.stats.counters import CounterSet
from repro.stats.histogram import ExactReservoir, LogHistogram, percentile
from repro.stats.tracker import LatencyTracker, ThroughputTracker

__all__ = [
    "CounterSet",
    "ExactReservoir",
    "LatencyTracker",
    "LogHistogram",
    "ThroughputTracker",
    "percentile",
]
