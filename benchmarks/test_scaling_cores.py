"""Benchmark: throughput scaling with core count.

Fig. 2's argument, validated through the full simulator rather than the
analytic model: AstriFlash's per-core throughput stays roughly flat as
cores are added (no global synchronization in the miss path), while
OS-Swap's collapses because every page install serializes on the kernel
page-table lock and a broadcast shootdown whose cost grows with the
core count.
"""

from conftest import run_once

from repro.harness.common import build_config, resolve_scale
from repro.core import Runner
from repro.workloads import make_workload

CORE_COUNTS = (1, 2, 4, 8, 16)


def sweep(scale_name):
    # The scaling question needs a cache big enough that total miss
    # churn (which grows with cores) does not evict parked threads'
    # pages before they resume — a small-cache artifact, not the
    # synchronization effect under test.  Use the full-scale dataset
    # with a shortened window regardless of the harness scale.
    del scale_name
    scale = resolve_scale("full")
    outcomes = {}
    for config_name in ("astriflash", "os-swap"):
        per_core = {}
        for cores in CORE_COUNTS:
            config = build_config(config_name, scale, (
                ("num_cores", cores),
                ("scale.measurement_ns", 3_000_000.0),
            ))
            workload = make_workload("arrayswap", scale.dataset_pages,
                                     seed=42, **scale.workload_kwargs())
            result = Runner(config, workload).run()
            per_core[cores] = result.throughput_jobs_per_s / cores
        outcomes[config_name] = per_core
    return outcomes


def test_scaling_cores(benchmark, harness_scale):
    outcomes = run_once(benchmark, sweep, harness_scale)
    print("\nper-core throughput vs cores (jobs/s/core):")
    for name, series in outcomes.items():
        row = "  ".join(f"{c}c:{t:8,.0f}" for c, t in series.items())
        print(f"  {name:12s} {row}")

    astri = outcomes["astriflash"]
    swap = outcomes["os-swap"]
    # AstriFlash stays within ~25% of its single-core efficiency.
    assert astri[max(CORE_COUNTS)] > 0.7 * astri[1]
    # OS-Swap loses per-core efficiency as shootdowns serialize.
    assert swap[max(CORE_COUNTS)] < 0.9 * swap[1]
    # And the scaling gap between the designs widens with cores.
    gap_small = astri[1] / swap[1]
    gap_large = astri[max(CORE_COUNTS)] / swap[max(CORE_COUNTS)]
    assert gap_large > gap_small
