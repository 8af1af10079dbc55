"""Unit tests for counters, percentiles and trackers."""

import pytest

from repro.errors import ReproError
from repro.stats import (
    CounterSet,
    LatencyTracker,
    ThroughputTracker,
    percentile,
)
from repro.units import SECOND


def measuring(values=()):
    """A latency tracker with its window open, holding ``values``."""
    tracker = LatencyTracker()
    tracker.start_measurement()
    for value in values:
        tracker.record(value)
    return tracker


class TestPercentile:
    def test_single_sample(self):
        assert percentile([5.0], 0.99) == 5.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        samples = list(range(100))
        assert percentile(samples, 0.0) == 0
        assert percentile(samples, 1.0) == 99

    def test_empty_raises(self):
        with pytest.raises(ReproError):
            percentile([], 0.5)

    def test_out_of_range_fraction_raises(self):
        with pytest.raises(ReproError):
            percentile([1.0], 1.5)


class TestExactReservoir:
    """The tracker keeps every sample: exact statistics."""

    def test_basic_stats(self):
        res = measuring([3.0, 1.0, 2.0])
        assert res.count == 3
        assert res.mean() == pytest.approx(2.0)
        assert res.percentile(0.0) == 1.0
        assert res.percentile(1.0) == 3.0
        assert res.percentile(0.5) == 2.0

    def test_unsorted_input_is_handled(self):
        res = measuring([5.0, 4.0, 3.0, 2.0, 1.0])
        assert res.samples() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_empty_raises(self):
        res = measuring()
        with pytest.raises(ReproError):
            res.mean()
        with pytest.raises(ReproError):
            res.p99()


class TestCounterSet:
    def test_add_and_get(self):
        counters = CounterSet()
        counters["hits"] += 1.0
        counters["hits"] += 2
        assert counters["hits"] == 3
        assert type(counters["hits"]) is float
        # Reading an absent count gives 0.0 and does not create it.
        assert counters["missing"] == 0
        assert "missing" not in counters

    def test_keys_keep_first_fire_order(self):
        counters = CounterSet()
        counters["b"] += 1.0
        counters["a"] += 0  # a zero bump still fires the key
        counters["b"] += 1.0
        assert list(counters) == ["b", "a"]
        assert dict(counters) == {"b": 2.0, "a": 0.0}


class TestTrackers:
    def test_latency_tracker_respects_window(self):
        tracker = LatencyTracker()
        tracker.record(100.0)  # warmup sample, dropped
        tracker.start_measurement()
        tracker.record(200.0)
        assert tracker.count == 1
        assert tracker.p50() == 200.0

    def test_restart_does_not_leak_prior_window(self):
        tracker = LatencyTracker()
        tracker.start_measurement()
        tracker.record(100.0)
        tracker.p50()  # a sorted window must not leak either
        tracker.start_measurement()  # fresh window
        tracker.record(200.0)
        assert tracker.count == 1
        assert tracker.p50() == 200.0
        assert tracker.mean() == 200.0

    def test_throughput_rate(self):
        tracker = ThroughputTracker()
        tracker.start_measurement(0.0)
        for _ in range(500):
            tracker.record_completion()
        tracker.stop_measurement(0.5 * SECOND)
        assert tracker.rate_per_second() == pytest.approx(1000.0)

    def test_throughput_restart_counts_only_the_new_window(self):
        tracker = ThroughputTracker()
        tracker.start_measurement(0.0)
        tracker.record_completion()
        tracker.stop_measurement(1.0 * SECOND)
        tracker.start_measurement(2.0 * SECOND)  # fresh window
        for _ in range(500):
            tracker.record_completion()
        tracker.stop_measurement(2.5 * SECOND)
        assert tracker.completions == 500
        assert tracker.rate_per_second() == pytest.approx(1000.0)

    def test_throughput_window_misuse_raises(self):
        tracker = ThroughputTracker()
        with pytest.raises(ReproError):
            tracker.stop_measurement(1.0)
        with pytest.raises(ReproError):
            tracker.rate_per_second()


class TestExactReservoirRunningSum:
    """The tracker's O(1) running-sum mean must survive interleaved
    records and sorts."""

    def test_mean_after_extend_following_percentile(self):
        res = measuring([5.0, 1.0, 3.0])
        assert res.percentile(0.5) == 3.0  # forces a sort
        res.record(11.0)
        res.record(2.0)
        assert res.mean() == pytest.approx(22.0 / 5)

    def test_mean_matches_naive_sum_after_resort(self):
        values = [7.5, 0.25, 3.125, 9.0, 1.0, 1.0, 6.5]
        res = measuring(values[:3])
        res.percentile(0.9)
        for value in values[3:]:
            res.record(value)
        res.percentile(0.9)  # re-sorts and re-syncs the sum
        assert res.mean() == sum(sorted(values)) / len(values)

    def test_interleaved_record_and_stats(self):
        res = measuring()
        total = 0.0
        for index in range(50):
            value = float((index * 31) % 17)
            res.record(value)
            total += value
            if index % 7 == 0:
                res.p50()  # sorting must not corrupt the sum
            assert res.mean() == pytest.approx(total / (index + 1))
