"""Unit tests for counters, histograms, and trackers."""

import pytest

from repro.errors import ReproError
from repro.stats import (
    CounterSet,
    ExactReservoir,
    LatencyTracker,
    LogHistogram,
    ThroughputTracker,
    percentile,
)
from repro.units import SECOND


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
    def test_basic_stats(self):
        res = ExactReservoir()
        res.extend([3.0, 1.0, 2.0])
        assert res.count == 3
        assert res.mean() == pytest.approx(2.0)
        assert res.min() == 1.0
        assert res.max() == 3.0
        assert res.percentile(0.5) == 2.0

    def test_unsorted_input_is_handled(self):
        res = ExactReservoir()
        res.extend([5.0, 4.0, 3.0, 2.0, 1.0])
        assert res.samples() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_empty_raises(self):
        res = ExactReservoir()
        with pytest.raises(ReproError):
            res.mean()


class TestLogHistogram:
    def test_percentile_within_relative_error(self):
        hist = LogHistogram(min_value=1.0, precision=64)
        samples = [float(i) for i in range(1, 10001)]
        for sample in samples:
            hist.record(sample)
        exact = percentile(samples, 0.99)
        approx = hist.percentile(0.99)
        assert abs(approx - exact) / exact < 0.03

    def test_mean_is_exact(self):
        hist = LogHistogram()
        for value in [10.0, 20.0, 30.0]:
            hist.record(value)
        assert hist.mean() == pytest.approx(20.0)

    def test_max_never_exceeded(self):
        hist = LogHistogram()
        hist.record(123.0)
        assert hist.percentile(1.0) <= 123.0

    def test_merge(self):
        left, right = LogHistogram(), LogHistogram()
        left.record(10.0)
        right.record(1000.0)
        left.merge(right)
        assert left.count == 2
        assert left.max() == 1000.0

    def test_merge_mismatched_raises(self):
        with pytest.raises(ReproError):
            LogHistogram(precision=32).merge(LogHistogram(precision=64))

    def test_invalid_params_raise(self):
        with pytest.raises(ReproError):
            LogHistogram(min_value=0.0)
        with pytest.raises(ReproError):
            LogHistogram(precision=1)


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
        tracker.stop_measurement()
        tracker.record(300.0)  # post-window, dropped
        assert tracker.count == 1
        assert tracker.p50() == 200.0

    def test_record_always_ignores_window(self):
        tracker = LatencyTracker()
        tracker.record_always(100.0)  # no window open
        tracker.start_measurement()
        tracker.stop_measurement()
        tracker.record_always(200.0)  # window closed
        assert tracker.count == 1
        assert tracker.p50() == 200.0

    def test_restart_does_not_leak_prior_window(self):
        tracker = LatencyTracker()
        tracker.start_measurement()
        tracker.record(100.0)
        tracker.stop_measurement()
        tracker.start_measurement()  # fresh window
        tracker.record(200.0)
        tracker.stop_measurement()
        assert tracker.count == 1
        assert tracker.p50() == 200.0

    def test_start_measurement_discards_warmup_record_always(self):
        tracker = LatencyTracker()
        tracker.record_always(5.0)  # warmup debugging sample
        tracker.start_measurement()
        assert tracker.count == 0

    def test_restart_resets_histogram_tracker_too(self):
        tracker = LatencyTracker(exact=False)
        tracker.start_measurement()
        tracker.record(100.0)
        tracker.start_measurement()
        tracker.record(1000.0)
        assert tracker.count == 1
        assert tracker.mean() == pytest.approx(1000.0)

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
    """The O(1) running-sum mean must survive sort/extend interleaving."""

    def test_mean_after_extend_following_percentile(self):
        res = ExactReservoir()
        res.extend([5.0, 1.0, 3.0])
        assert res.percentile(0.5) == 3.0  # forces a sort
        res.extend([11.0, 2.0])
        assert res.mean() == pytest.approx(22.0 / 5)

    def test_mean_matches_naive_sum_after_resort(self):
        values = [7.5, 0.25, 3.125, 9.0, 1.0, 1.0, 6.5]
        res = ExactReservoir()
        res.extend(values[:3])
        res.percentile(0.9)
        res.extend(values[3:])
        res.percentile(0.9)  # re-sorts and re-syncs the sum
        assert res.mean() == sum(sorted(values)) / len(values)

    def test_interleaved_record_and_stats(self):
        res = ExactReservoir()
        total = 0.0
        for index in range(50):
            value = float((index * 31) % 17)
            res.record(value)
            total += value
            if index % 7 == 0:
                res.min(), res.max()  # sorting must not corrupt the sum
            assert res.mean() == pytest.approx(total / (index + 1))


class TestLogHistogramKeyCache:
    """percentile() walks a cached sorted key list; the cache must be
    invalidated whenever record()/merge() introduces a new bucket."""

    def test_record_into_new_bucket_after_percentile(self):
        hist = LogHistogram()
        hist.record(10.0)
        hist.record(100.0)
        assert hist.percentile(0.5) < 200.0  # primes the cache
        hist.record(10_000.0)  # brand-new bucket
        p100 = hist.percentile(1.0)
        assert abs(p100 - 10_000.0) / 10_000.0 < 0.05

    def test_merge_into_new_bucket_after_percentile(self):
        left = LogHistogram()
        left.record(10.0)
        left.percentile(0.5)  # primes the cache
        right = LogHistogram()
        right.record(5_000.0)
        left.merge(right)
        p100 = left.percentile(1.0)
        assert abs(p100 - 5_000.0) / 5_000.0 < 0.05

    def test_cached_percentiles_match_fresh_histogram(self):
        import random as _random
        rng = _random.Random(7)
        cached = LogHistogram()
        values = []
        for round_index in range(40):
            value = rng.uniform(1.0, 1e6)
            values.append(value)
            cached.record(value)
            if round_index % 3 == 0:
                cached.percentile(0.9)  # interleave cache priming
        fresh = LogHistogram()
        for value in values:
            fresh.record(value)
        for fraction in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert cached.percentile(fraction) == fresh.percentile(fraction)
