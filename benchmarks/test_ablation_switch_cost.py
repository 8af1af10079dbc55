"""Ablation: thread-switch cost sweep.

DESIGN.md design point: the 100 ns user-level switch is 50x cheaper
than an OS context switch.  Sweeping the switch cost from free
(AstriFlash-Ideal) through the paper's 100 ns to an OS-like 5 us shows
how throughput decays toward OS-Swap as switches get heavier.
"""

from conftest import run_once

from repro.harness.common import build_config, resolve_scale
from repro.core import Runner
from repro.units import US
from repro.workloads import make_workload

SWITCH_COSTS_NS = (0.0, 100.0, 1_000.0, 5_000.0)


def sweep(scale_name):
    scale = resolve_scale(scale_name)
    throughputs = {}
    for switch_ns in SWITCH_COSTS_NS:
        config = build_config("astriflash", scale,
                              (("ult.switch_latency_ns", switch_ns),))
        workload = make_workload("tatp", scale.dataset_pages, seed=42,
                                 **scale.workload_kwargs())
        result = Runner(config, workload).run()
        throughputs[switch_ns] = result.throughput_jobs_per_s
    return throughputs


def test_ablation_switch_cost(benchmark, harness_scale):
    throughputs = run_once(benchmark, sweep, harness_scale)
    print("\nswitch cost sweep (jobs/s):")
    for cost, tput in throughputs.items():
        print(f"  {cost / 1000:5.1f} us switch -> {tput:10,.0f}")

    # The paper's 100 ns switch costs almost nothing vs free switches.
    assert throughputs[100.0] > 0.85 * throughputs[0.0]
    # OS-scale 5 us switches hurt badly.
    assert throughputs[5_000.0] < 0.9 * throughputs[100.0]
