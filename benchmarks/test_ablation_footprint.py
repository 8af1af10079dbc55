"""Ablation: footprint-cache refills (the Sec. II-A bandwidth option).

Fetching only the predicted footprint of a page cuts the flash refill
bandwidth Equation 1 charges — the knob the paper offers for scaling to
higher core counts under a fixed PCIe budget.
"""

from conftest import run_once

from repro.harness.common import build_config, resolve_scale
from repro.core import Runner
from repro.workloads import make_workload


def sweep(scale_name):
    scale = resolve_scale(scale_name)
    outcomes = {}
    for enabled in (False, True):
        config = build_config("astriflash", scale, (
            ("dram_cache.footprint_enabled", enabled),
            ("dram_cache.footprint_region_pages", 32),
            ("dram_cache.footprint_safety_blocks", 4),
        ))
        workload = make_workload("rbtree", scale.dataset_pages, seed=42,
                                 **scale.workload_kwargs())
        runner = Runner(config, workload)
        result = runner.run()
        flash = runner.machine.flash
        outcomes["footprint" if enabled else "full-page"] = {
            "throughput": result.throughput_jobs_per_s,
            "pcie_bytes": flash.pcie.bytes_transferred,
            "reads": flash.stats["reads"],
            "underfetch_rate": (
                runner.machine.dram_cache.backside.footprint.underfetch_rate()
                if enabled else 0.0
            ),
        }
    return outcomes


def test_ablation_footprint(benchmark, harness_scale):
    outcomes = run_once(benchmark, sweep, harness_scale)
    print("\nfootprint-cache sweep:")
    for name, data in outcomes.items():
        per_read = data["pcie_bytes"] / max(1, data["reads"])
        print(f"  {name:10s} -> {data['throughput']:10,.0f} jobs/s  "
              f"{per_read:6.0f} B/refill  "
              f"underfetch={data['underfetch_rate']:.1%}")

    full = outcomes["full-page"]
    foot = outcomes["footprint"]
    # The pointer-chasing RBT touches few blocks per page: footprint
    # refills move far fewer bytes per read.
    assert foot["pcie_bytes"] / max(1, foot["reads"]) < \
        0.8 * full["pcie_bytes"] / max(1, full["reads"])
    # Throughput is not hurt (bandwidth was not the bottleneck here).
    assert foot["throughput"] > 0.7 * full["throughput"]
