"""Ablation: LATR-style batched TLB shootdowns under OS-Swap.

Sec. II-C notes that batching proposals ([1], [46]) reduce shootdown
overhead but the total still grows with core count.  This bench
measures OS-Swap throughput with and without batching and checks that
batching helps yet still leaves OS-Swap far from AstriFlash.
"""

from conftest import run_once

from repro.harness.common import build_config, resolve_scale
from repro.core import Runner
from repro.workloads import make_workload


def sweep(scale_name):
    scale = resolve_scale(scale_name)
    outcomes = {}
    variants = {
        "os-swap": ("os-swap", False),
        "os-swap+latr": ("os-swap", True),
        "astriflash": ("astriflash", False),
    }
    for name, (config_name, batched) in variants.items():
        config = build_config(config_name, scale,
                              (("os.batched_shootdowns", batched),))
        workload = make_workload("arrayswap", scale.dataset_pages, seed=42,
                                 **scale.workload_kwargs())
        result = Runner(config, workload).run()
        outcomes[name] = result.throughput_jobs_per_s
    return outcomes


def test_ablation_shootdown_batching(benchmark, harness_scale):
    outcomes = run_once(benchmark, sweep, harness_scale)
    print("\nshootdown batching sweep (jobs/s):")
    for name, tput in outcomes.items():
        print(f"  {name:14s} -> {tput:10,.0f}")

    # Batching helps OS-Swap (or at worst is neutral)...
    assert outcomes["os-swap+latr"] >= 0.95 * outcomes["os-swap"]
    # ...but hardware-managed caching still wins decisively, which is
    # the paper's Sec. II-C argument against incremental paging fixes.
    assert outcomes["astriflash"] > 1.2 * outcomes["os-swap+latr"]
