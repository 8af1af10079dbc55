"""Ablation: DRAM-cache organization choices.

DESIGN.md design points: set associativity (conflict misses at page
granularity) and Unison-style way prediction (serialized vs overlapped
tag access on hits).
"""

from conftest import run_once

from repro.harness.common import build_config, resolve_scale
from repro.core import Runner
from repro.workloads import make_workload


def sweep(scale_name):
    scale = resolve_scale(scale_name)
    outcomes = {}
    variants = {
        "direct-mapped": (("dram_cache.associativity", 1),),
        "8-way": (("dram_cache.associativity", 8),),
        "8-way-no-waypred": (("dram_cache.associativity", 8),
                             ("dram_cache.way_prediction", False)),
    }
    for name, overrides in variants.items():
        config = build_config("astriflash", scale, overrides)
        workload = make_workload("tatp", scale.dataset_pages, seed=42,
                                 **scale.workload_kwargs())
        result = Runner(config, workload).run()
        outcomes[name] = {
            "throughput": result.throughput_jobs_per_s,
            "miss_ratio": result.miss_ratio,
        }
    return outcomes


def test_ablation_dramcache(benchmark, harness_scale):
    outcomes = run_once(benchmark, sweep, harness_scale)
    print("\nDRAM-cache organization sweep:")
    for name, data in outcomes.items():
        print(f"  {name:18s} -> {data['throughput']:10,.0f} jobs/s"
              f"  miss={data['miss_ratio']:.2%}")

    # Direct mapping adds conflict misses over 8-way.
    assert outcomes["direct-mapped"]["miss_ratio"] >= \
        outcomes["8-way"]["miss_ratio"]
    # Disabling way prediction serializes the tag probe on every hit,
    # costing throughput.
    assert outcomes["8-way-no-waypred"]["throughput"] < \
        outcomes["8-way"]["throughput"] * 1.02
