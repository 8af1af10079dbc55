"""Figure 1: DRAM-cache miss ratio and required flash bandwidth vs
DRAM capacity.

The paper sweeps the DRAM-to-flash capacity ratio, measures the miss
ratio of the DRAM tier (averaged over workloads), and applies
Equation 1 to get the flash refill bandwidth for a 64-core machine.
The miss rate flattens around 3 % of the dataset, where the bandwidth
is ~60 GB/s — within PCIe Gen5 reach.

We reproduce it by running each workload's real page trace through a
fully-associative LRU simulation of the DRAM tier at each capacity
point (the OS/hardware-managed tier is approximately LRU at page
granularity), then averaging miss ratios across workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence

from repro.analytic.bandwidth import (
    PAPER_CORE_COUNT,
    flash_bandwidth_total_gbps,
)
from repro.harness.common import ExperimentResult, HarnessScale, resolve_scale
from repro.harness.parallel import map_tasks

CAPACITY_FRACTIONS: Sequence[float] = (
    0.01, 0.02, 0.03, 0.04, 0.05, 0.075, 0.10,
)


def lru_miss_ratio(pages: Sequence[int], capacity_pages: int,
                   warm: int = 0) -> float:
    """Miss ratio of an LRU page cache over ``pages[warm:]``, after
    the first ``warm`` pages have filled it uncounted."""
    if capacity_pages < 1:
        raise ValueError("capacity must be at least one page")
    cache: "OrderedDict[int, None]" = OrderedDict()
    move_to_end = cache.move_to_end
    popitem = cache.popitem
    for page in pages[:warm]:
        if page in cache:
            move_to_end(page)
        else:
            if len(cache) >= capacity_pages:
                popitem(last=False)
            cache[page] = None
    hits = misses = 0
    for page in pages[warm:]:
        if page in cache:
            move_to_end(page)
            hits += 1
        else:
            misses += 1
            if len(cache) >= capacity_pages:
                popitem(last=False)
            cache[page] = None
    total = hits + misses
    return misses / total if total else 0.0


def workload_trace(workload_name: str, scale: HarnessScale,
                   num_steps: int, seed: int) -> List[int]:
    from repro import snapshot as snap

    workload = snap.build_workload(workload_name, scale.dataset_pages, seed,
                                   **scale.workload_kwargs())
    pages: List[int] = []
    append = pages.append
    while len(pages) < num_steps:
        for _, page, _ in workload.make_job().steps:
            append(page)
    return pages[:num_steps]


def run(scale="quick", steps_per_workload: int = 60_000,
        seed: int = 42, jobs: Optional[int] = None) -> ExperimentResult:
    """Regenerate Figure 1's two series."""
    scale = resolve_scale(scale)
    result = ExperimentResult(
        experiment="fig1",
        title=("Fig. 1: miss ratio and required flash bandwidth "
               "(64 cores, Eq. 1) vs DRAM capacity"),
        columns=["dram_capacity_pct", "miss_ratio",
                 "flash_bw_gbps_64cores"],
        notes=("Paper shape: miss rate flattens near 3% capacity; "
               "~60 GB/s of flash bandwidth at the knee."),
    )
    # Per-workload trace generation is independent: fan it out.
    traces = map_tasks(
        workload_trace,
        [{"workload_name": name, "scale": scale,
          "num_steps": steps_per_workload, "seed": seed}
         for name in scale.workloads],
        jobs=jobs,
    )
    # Warm half the trace, measure on the second half so the cold-start
    # misses do not pollute the steady-state ratio.
    for fraction in CAPACITY_FRACTIONS:
        capacity = max(1, int(scale.dataset_pages * fraction))
        ratios = [lru_miss_ratio(trace, capacity, warm=len(trace) // 2)
                  for trace in traces]
        mean_miss = sum(ratios) / len(ratios)
        bandwidth = flash_bandwidth_total_gbps(mean_miss, PAPER_CORE_COUNT)
        result.add_row(fraction * 100.0, mean_miss, bandwidth)
    return result
