"""Figure 9: simulated throughput normalized to a DRAM-only system.

Closed-loop maximum-throughput runs of every workload under
DRAM-only, AstriFlash, AstriFlash-Ideal, OS-Swap, and Flash-Sync.
Paper shape: AstriFlash ~95% (Ideal ~96%), OS-Swap ~58%,
Flash-Sync ~27%; TPCC degrades the most under AstriFlash because its
compute-heavy ROB makes each flush costlier.

Every (config, workload) cell is an independent run, so the whole grid
fans out through :mod:`repro.harness.parallel`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.harness.common import ExperimentResult, resolve_scale
from repro.harness.parallel import RunSpec, run_specs

CONFIGS: Sequence[str] = (
    "dram-only", "astriflash", "astriflash-ideal", "os-swap", "flash-sync",
)


def run(scale="quick", seed: int = 42,
        configs: Sequence[str] = CONFIGS,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Regenerate Figure 9's normalized-throughput bars."""
    scale = resolve_scale(scale)
    if "dram-only" not in configs:
        raise ValueError("Figure 9 needs the dram-only baseline")
    result = ExperimentResult(
        experiment="fig9",
        title="Fig. 9: throughput normalized to DRAM-only",
        columns=["workload"] + [name for name in configs
                                if name != "dram-only"],
        notes=("Paper: AstriFlash ~0.95, Ideal ~0.96, OS-Swap ~0.58, "
               "Flash-Sync ~0.27 on average."),
    )
    cells = [(workload_name, config_name)
             for workload_name in scale.workloads
             for config_name in configs]
    specs = [RunSpec(config_name, workload_name, scale, seed=seed)
             for workload_name, config_name in cells]
    outcomes = dict(zip(cells, run_specs(specs, jobs=jobs)))

    averages: Dict[str, list] = {name: [] for name in configs
                                 if name != "dram-only"}
    for workload_name in scale.workloads:
        baseline = outcomes[(workload_name, "dram-only")]
        row = [workload_name]
        for config_name in configs:
            if config_name == "dram-only":
                continue
            outcome = outcomes[(workload_name, config_name)]
            ratio = (outcome.throughput_jobs_per_s
                     / baseline.throughput_jobs_per_s)
            row.append(ratio)
            averages[config_name].append(ratio)
        result.add_row(*row)
    result.add_row(
        "geomean",
        *[
            _geomean(averages[name])
            for name in configs if name != "dram-only"
        ],
    )
    return result


def _geomean(values) -> float:
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= max(value, 1e-12)
    return product ** (1.0 / len(values))
