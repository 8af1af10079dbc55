"""Benchmarks: sensitivity sweeps beyond the paper's figures."""

from conftest import run_once

from repro.harness.sensitivity import DRAM_FRACTION_SWEEP, THREAD_COUNT_SWEEP


def test_sensitivity_dram_fraction(benchmark, harness_scale):
    result = run_once(benchmark, DRAM_FRACTION_SWEEP, harness_scale)
    print("\n" + result.format_table())

    fractions = result.column("dram_fraction")
    ratios = dict(zip(fractions, result.column("throughput_vs_dram_only")))
    misses = dict(zip(fractions, result.column("miss_ratio")))
    # Throughput improves (weakly) with more DRAM, and miss ratio falls.
    assert ratios[0.10] >= ratios[0.01]
    assert misses[0.01] > misses[0.10]
    # The 3% design point already captures most of the benefit.
    assert ratios[0.03] > 0.85 * ratios[0.10]


def test_sensitivity_thread_count(benchmark, harness_scale):
    result = run_once(benchmark, THREAD_COUNT_SWEEP, harness_scale)
    print("\n" + result.format_table())

    threads = result.column("threads_per_core")
    tput = dict(zip(threads, result.column("throughput_jobs_per_s")))
    # One thread degenerates toward synchronous flash waiting.
    assert tput[1] < 0.6 * tput[48]
    # Returns diminish once the pool covers the stall.
    assert tput[16] > 0.8 * tput[48]
    # More threads never hurt drastically.
    assert tput[48] >= 0.9 * max(tput.values())
