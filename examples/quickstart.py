#!/usr/bin/env python
"""Quickstart: run AstriFlash against a DRAM-only baseline.

Builds the paper's AstriFlash machine (hardware-managed DRAM cache over
flash + switch-on-miss user-level threading), runs the TATP workload in
a closed loop, and compares throughput and service latency against a
server that holds the whole dataset in DRAM.

Usage:  python examples/quickstart.py
"""

from repro.config import make_config
from repro.core import Runner
from repro.units import US
from repro.workloads import make_workload

# A laptop-friendly scale: 8k pages of dataset (the DRAM cache gets the
# paper's 3%), two cores, a few simulated milliseconds.
DATASET_PAGES = 8192
NUM_CORES = 2
ZIPF_SKEW = 1.7


def build_runner(config_name: str) -> Runner:
    # A config is a frozen value: vary a preset with (dotted path, value)
    # overrides.
    config = make_config(config_name, (
        ("num_cores", NUM_CORES),
        ("scale.dataset_pages", DATASET_PAGES),
        ("scale.warmup_ns", 300.0 * US),
        ("scale.measurement_ns", 3_000.0 * US),
    ))
    workload = make_workload("tatp", DATASET_PAGES, seed=1,
                             zipf_s=ZIPF_SKEW)
    return Runner(config, workload)


def main() -> None:
    print("Running DRAM-only baseline...")
    dram = build_runner("dram-only").run()
    print(dram.describe())

    print("\nRunning AstriFlash (DRAM cache + switch-on-miss)...")
    astri_runner = build_runner("astriflash")
    astri = astri_runner.run()
    print(astri.describe())

    ratio = astri.throughput_jobs_per_s / dram.throughput_jobs_per_s
    print(f"\nAstriFlash achieves {ratio:.0%} of DRAM-only throughput")
    print(f"with a DRAM cache of only "
          f"{astri_runner.machine.dram_cache.capacity_pages} pages "
          f"({astri_runner.machine.dram_cache.capacity_pages / DATASET_PAGES:.1%} "
          "of the dataset).")
    print(f"Every DRAM-cache miss ({astri.miss_ratio:.2%} of accesses, one "
          f"every {astri.mean_inter_miss_ns / 1000:.1f} us of execution) "
          "was absorbed by a 100 ns user-level thread switch instead of a "
          "multi-microsecond OS page fault.")


if __name__ == "__main__":
    main()
