"""Figure 9: simulated throughput normalized to a DRAM-only system.

Closed-loop maximum-throughput runs of every workload under
DRAM-only, AstriFlash, AstriFlash-Ideal, OS-Swap, and Flash-Sync.
Paper shape: AstriFlash ~95% (Ideal ~96%), OS-Swap ~58%,
Flash-Sync ~27%; TPCC degrades the most under AstriFlash because its
compute-heavy ROB makes each flush costlier.
"""

from __future__ import annotations

from repro.harness.common import Figure
from repro.harness.parallel import RunSpec

CONFIGS = ("dram-only", "astriflash", "astriflash-ideal", "os-swap",
           "flash-sync")


def _cells(scale, seed, anchor):
    return {(workload, config): RunSpec(config, workload, scale, seed=seed)
            for workload in scale.workloads for config in CONFIGS}


def _rows(scale, results, anchor):
    ratios = {config: [results[(workload, config)].throughput_jobs_per_s
                       / results[(workload, "dram-only")].throughput_jobs_per_s
                       for workload in scale.workloads]
              for config in CONFIGS[1:]}
    for index, workload in enumerate(scale.workloads):
        yield [workload] + [ratios[config][index] for config in CONFIGS[1:]]
    yield ["geomean"] + [_geomean(ratios[config]) for config in CONFIGS[1:]]


def _geomean(values) -> float:
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= max(value, 1e-12)
    return product ** (1.0 / len(values))


FIGURE = Figure(
    experiment="fig9",
    title="Fig. 9: throughput normalized to DRAM-only",
    columns=("workload",) + CONFIGS[1:],
    notes=("Paper: AstriFlash ~0.95, Ideal ~0.96, OS-Swap ~0.58, "
           "Flash-Sync ~0.27 on average."),
    cells=_cells, rows=_rows,
)
