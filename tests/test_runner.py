"""Integration tests: full-system runs across all configurations.

These use a small scale (2 cores, 2k-page dataset, short windows) so
the whole file runs in seconds while still exercising every mode's
end-to-end path: DRAM-cache misses, flash refills, thread switches,
page faults, shootdowns, and measurement.
"""

import pytest

from repro.config import make_config
from repro.core import Runner
from repro.errors import ConfigurationError
from repro.units import US
from repro.workloads import PoissonArrivals, make_workload

DATASET = 8192


def quick_runner(config_name, workload_name="arrayswap", arrivals=None,
                 seed=11, overrides=(), **workload_kwargs):
    config = make_config(config_name, (
        ("num_cores", 2),
        ("scale.dataset_pages", DATASET),
        ("scale.warmup_ns", 300.0 * US),
        ("scale.measurement_ns", 2_500.0 * US),
    ) + tuple(overrides))
    # Zipf coverage shrinks with the item count, so the tiny test
    # dataset needs a higher skew to land at the paper's ~2% miss rate
    # (the full-scale default of 1.55 is calibrated in DESIGN.md).
    workload_kwargs.setdefault("zipf_s", 1.7)
    workload = make_workload(workload_name, DATASET, seed=seed,
                             **workload_kwargs)
    return Runner(config, workload, arrivals=arrivals)


@pytest.fixture(scope="module")
def closed_loop_results():
    results = {}
    for name in ("dram-only", "astriflash", "os-swap", "flash-sync"):
        results[name] = quick_runner(name).run()
    return results


class TestClosedLoop:
    def test_all_modes_complete_jobs(self, closed_loop_results):
        for name, result in closed_loop_results.items():
            assert result.completed_jobs > 10, name
            assert result.throughput_jobs_per_s > 0, name

    def test_throughput_ordering_matches_paper(self, closed_loop_results):
        """Fig. 9's ordering: Flash-Sync < OS-Swap < AstriFlash < DRAM."""
        tput = {name: r.throughput_jobs_per_s
                for name, r in closed_loop_results.items()}
        assert tput["flash-sync"] < tput["os-swap"]
        assert tput["os-swap"] < tput["astriflash"]
        assert tput["astriflash"] < tput["dram-only"]

    def test_astriflash_is_large_fraction_of_dram(self, closed_loop_results):
        ratio = (closed_loop_results["astriflash"].throughput_jobs_per_s
                 / closed_loop_results["dram-only"].throughput_jobs_per_s)
        assert ratio > 0.55  # tiny-scale runs are noisy; Fig. 9 bench
        # uses the full scale where this lands near the paper's 95%.

    def test_flash_sync_collapses(self, closed_loop_results):
        ratio = (closed_loop_results["flash-sync"].throughput_jobs_per_s
                 / closed_loop_results["dram-only"].throughput_jobs_per_s)
        assert ratio < 0.45

    def test_dram_only_never_misses(self, closed_loop_results):
        assert closed_loop_results["dram-only"].miss_ratio == 0.0

    def test_flash_modes_miss_at_calibrated_rate(self, closed_loop_results):
        for name in ("astriflash", "flash-sync"):
            result = closed_loop_results[name]
            assert 0.001 < result.miss_ratio < 0.12, name
            # Sec. II-A: a DRAM miss every few microseconds per core.
            assert 1.0 * US < result.mean_inter_miss_ns < 100.0 * US, name

    def test_service_latency_includes_miss_waits(self, closed_loop_results):
        dram = closed_loop_results["dram-only"]
        sync = closed_loop_results["flash-sync"]
        # Flash-Sync jobs serialize ~50 us stalls into service time.
        assert sync.service_p50_ns > dram.service_p50_ns

    def test_counters_exported(self, closed_loop_results):
        counters = closed_loop_results["astriflash"].counters
        assert any(key.startswith("dramcache.") for key in counters)
        assert any(key.startswith("flash.") for key in counters)


class TestOpenLoop:
    def test_poisson_run_reports_response_latency(self):
        runner = quick_runner("astriflash",
                              arrivals=PoissonArrivals(40.0 * US, seed=5))
        result = runner.run()
        assert result.response_p99_ns is not None
        assert result.response_p99_ns >= result.service_p99_ns * 0.5

    def test_low_load_has_low_queueing(self):
        light = quick_runner(
            "dram-only", arrivals=PoissonArrivals(200.0 * US, seed=5)
        ).run()
        heavy = quick_runner(
            "dram-only", arrivals=PoissonArrivals(12.0 * US, seed=5)
        ).run()
        assert light.response_p99_ns < heavy.response_p99_ns


class TestAblationConfigs:
    def test_nops_hurts_tail_latency(self):
        base = quick_runner("astriflash", seed=21).run()
        nops = quick_runner("astriflash-nops", seed=21).run()
        # FIFO starves pending jobs: service p99 inflates (Table II).
        assert nops.service_p99_ns > base.service_p99_ns

    def test_nodp_pays_for_flash_walks(self):
        runner = quick_runner("astriflash-nodp", seed=22)
        result = runner.run()
        assert runner.stats["tlb_misses"] > 0
        # The counter path for flash-served walks exists (it may be
        # zero on tiny runs when PT pages all fit in cache).
        assert runner.stats["pt_walk_flash_misses"] >= 0

    def test_ideal_at_least_as_fast_as_base(self):
        base = quick_runner("astriflash", seed=23).run()
        ideal = quick_runner("astriflash-ideal", seed=23).run()
        assert ideal.throughput_jobs_per_s > 0.7 * base.throughput_jobs_per_s


class TestAllWorkloadsRun:
    @pytest.mark.parametrize("workload_name", [
        "arrayswap", "rbtree", "hashtable", "tatp", "tpcc", "silo",
        "masstree",
    ])
    def test_astriflash_runs_every_workload(self, workload_name):
        result = quick_runner("astriflash", workload_name).run()
        assert result.completed_jobs > 0
        assert result.service_p99_ns > 0


class TestResultReporting:
    def test_describe_is_readable(self, closed_loop_results):
        text = closed_loop_results["astriflash"].describe()
        assert "astriflash" in text
        assert "jobs/s" in text

    def test_empty_window_raises(self):
        runner = quick_runner("dram-only", overrides=(
            ("scale.measurement_ns", 1.0),  # nothing can finish
        ))
        with pytest.raises(ConfigurationError):
            runner.run()
