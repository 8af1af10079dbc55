#!/usr/bin/env python
"""Trace workflow: capture a workload's page trace, analyze it, and
replay it through two system designs.

This is the flow an operator would use with a *proprietary* access
trace: record once (or convert from production telemetry), then study
memory-system options offline without the workload itself.

Usage:  python examples/trace_replay.py
"""

import io

from repro.config import make_config
from repro.core import Runner
from repro.trace import TraceRecorder, TraceWorkload, load_trace, trace_statistics
from repro.units import US
from repro.workloads import make_workload

DATASET_PAGES = 8192


def main() -> None:
    # 1. Capture a trace from the Silo OCC workload.
    print("Capturing 30,000 steps from the 'silo' workload...")
    source = make_workload("silo", DATASET_PAGES, seed=9, zipf_s=1.7)
    recorder = TraceRecorder(source)
    recorder.record(30_000)

    # 2. Persist + reload (round-trips through the portable format).
    buffer = io.StringIO()
    recorder.save(buffer)
    buffer.seek(0)
    steps = load_trace(buffer)

    # 3. Analyze.
    stats = trace_statistics(steps)
    print(f"  steps             {stats.num_steps:,}")
    print(f"  distinct pages    {stats.distinct_pages:,} "
          f"({stats.distinct_pages / DATASET_PAGES:.0%} of the dataset)")
    print(f"  write fraction    {stats.write_fraction:.1%}")
    print(f"  hot decile share  {stats.top_decile_access_share:.0%} "
          "of all accesses")

    # 4. Replay the identical trace through two designs.
    replay_results = {}
    for config_name in ("dram-only", "astriflash"):
        replay = TraceWorkload(steps, steps_per_job=60,
                               dataset_pages=DATASET_PAGES)
        config = make_config(config_name, (
            ("num_cores", 2),
            ("scale.dataset_pages", DATASET_PAGES),
            ("scale.warmup_ns", 300.0 * US),
            ("scale.measurement_ns", 2_000.0 * US),
        ))
        replay_results[config_name] = Runner(config, replay).run()

    print("\nReplaying the same trace:")
    for name, result in replay_results.items():
        print(f"  {name:12s} {result.throughput_jobs_per_s:10,.0f} jobs/s  "
              f"p99 {result.service_p99_ns / US:7.1f} us  "
              f"miss {result.miss_ratio:.2%}")
    ratio = (replay_results["astriflash"].throughput_jobs_per_s
             / replay_results["dram-only"].throughput_jobs_per_s)
    print(f"\nAstriFlash sustains {ratio:.0%} of DRAM-only throughput on "
          "this trace.")


if __name__ == "__main__":
    main()
