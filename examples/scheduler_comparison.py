#!/usr/bin/env python
"""Scheduler study: why priority-with-aging matters (Table II live).

Runs the same moderate-load TATP service under the three core-side
designs — priority+aging (AstriFlash), FIFO (AstriFlash-noPS), and
synchronous waiting (Flash-Sync) — and prints the service-latency
distributions, showing how the scheduler keeps pending jobs from
starving while still overlapping flash accesses.

Usage:  python examples/scheduler_comparison.py
"""

from repro.config import make_config
from repro.core import Runner
from repro.units import US
from repro.workloads import PoissonArrivals, make_workload

DATASET_PAGES = 8192
NUM_CORES = 2
LOAD = 0.6


#: The laptop-scale machine every design runs on.
SCALE = (
    ("num_cores", NUM_CORES),
    ("scale.dataset_pages", DATASET_PAGES),
    ("scale.warmup_ns", 300.0 * US),
    ("scale.measurement_ns", 3_000.0 * US),
)


def run(config_name, interarrival_ns, seed=5):
    config = make_config(config_name, SCALE)
    workload = make_workload("tatp", DATASET_PAGES, seed=seed, zipf_s=1.7)
    runner = Runner(config, workload,
                    arrivals=PoissonArrivals(interarrival_ns, seed=seed + 1))
    return runner, runner.run()


def main() -> None:
    saturation_runner = Runner(
        make_config("dram-only", SCALE),
        make_workload("tatp", DATASET_PAGES, seed=5, zipf_s=1.7),
    )
    max_rate = saturation_runner.run().throughput_jobs_per_s
    interarrival = NUM_CORES / (LOAD * max_rate) * 1e9

    print(f"TATP at {LOAD:.0%} load "
          f"({max_rate * LOAD:,.0f} jobs/s offered)\n")
    print(f"{'design':20s} {'p50':>10} {'p99':>10} {'sched detail'}")
    results = {}
    for name in ("flash-sync", "astriflash", "astriflash-nops"):
        runner, result = run(name, interarrival)
        results[name] = result
        detail = ""
        library = runner.machine.libraries[0]
        if library is not None:
            scheduler = library.scheduler
            detail = (f"aged={scheduler.aged_dispatches:.0f} "
                      f"ready={scheduler.ready_dispatches:.0f} "
                      f"new={scheduler.new_dispatches:.0f}")
        print(f"{name:20s} {result.service_p50_ns / US:9.1f}u "
              f"{result.service_p99_ns / US:9.1f}u  {detail}")

    base = results["flash-sync"].service_p99_ns
    print("\np99 service latency normalized to Flash-Sync:")
    for name, result in results.items():
        print(f"  {name:20s} {result.service_p99_ns / base:5.2f}x")
    print("\nPriority+aging resumes a pending job as soon as its page "
          "arrives (aging ~= one flash response), so its distribution "
          "hugs Flash-Sync's; FIFO only notices pending jobs at miss "
          "events and lets them starve behind new work.")


if __name__ == "__main__":
    main()
