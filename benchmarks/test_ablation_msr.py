"""Ablation: Miss Status Row capacity.

The in-DRAM MSR exists because the DRAM cache can have hundreds of
concurrent misses (Sec. IV-B2).  Shrinking it to SRAM-MSHR-like sizes
forces the backside controller to stall admissions, which shows up as
MSR full-stalls and lost throughput.
"""

from conftest import run_once

from repro.harness.common import build_config, resolve_scale
from repro.core import Runner
from repro.workloads import make_workload

MSR_SIZES = (2, 8, 512)


def sweep(scale_name):
    scale = resolve_scale(scale_name)
    outcomes = {}
    for entries in MSR_SIZES:
        config = build_config("astriflash", scale,
                              (("dram_cache.msr_entries", entries),))
        workload = make_workload("arrayswap", scale.dataset_pages, seed=42,
                                 **scale.workload_kwargs())
        runner = Runner(config, workload)
        result = runner.run()
        msr = runner.machine.dram_cache.backside.msr
        outcomes[entries] = {
            "throughput": result.throughput_jobs_per_s,
            "full_stalls": msr.full_stalls,
            "peak": msr.peak_occupancy,
        }
    return outcomes


def test_ablation_msr(benchmark, harness_scale):
    outcomes = run_once(benchmark, sweep, harness_scale)
    print("\nMSR capacity sweep:")
    for entries, data in outcomes.items():
        print(f"  {entries:4d} entries -> {data['throughput']:10,.0f} jobs/s"
              f"  peak={data['peak']}  full_stalls={data['full_stalls']:.0f}")

    # A 2-entry MSR (SRAM-MSHR scale) stalls the admission path.
    assert outcomes[2]["full_stalls"] > 0
    # A big in-DRAM MSR never fills at this scale.
    assert outcomes[512]["full_stalls"] == 0
    assert outcomes[512]["peak"] < 512
    # Capacity is never exceeded.
    for entries, data in outcomes.items():
        assert data["peak"] <= entries
