"""Table II: 99th-percentile service latency normalized to Flash-Sync.

The paper compares the service-latency distribution (dispatch to
completion, miss waits included) of AstriFlash against the ablations:

* AstriFlash       ~1.02x Flash-Sync — the priority scheduler resumes a
  pending job right after its page arrives (modulo the current job);
* AstriFlash-noPS  ~7x — FIFO starves pending jobs behind new work;
* AstriFlash-noDP  ~1.7x — cold page-table walks are served from flash.

Runs use open-loop arrivals at a moderate load so the comparison
captures scheduling policy rather than saturation queueing.  The four
ablation runs fan out through :mod:`repro.harness.parallel`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.harness.common import ExperimentResult, resolve_scale
from repro.harness.parallel import RunSpec, poisson, run_specs

CONFIGS: Sequence[str] = (
    "flash-sync", "astriflash", "astriflash-nops", "astriflash-nodp",
)


def run(scale="quick", seed: int = 42, workload_name: str = "tatp",
        load: float = 0.4,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Regenerate Table II's normalized p99 service latencies."""
    scale = resolve_scale(scale)
    (saturation,) = run_specs(
        [RunSpec("dram-only", workload_name, scale, seed=seed)], jobs=jobs)
    per_core_interarrival = (
        scale.num_cores / (load * saturation.throughput_jobs_per_s) * 1e9
    )

    specs = [
        RunSpec(config_name, workload_name, scale, seed=seed,
                arrivals=poisson(per_core_interarrival, seed=seed + 1))
        for config_name in CONFIGS
    ]
    outcomes = dict(zip(CONFIGS, run_specs(specs, jobs=jobs)))
    baseline = outcomes["flash-sync"].service_p99_ns

    result = ExperimentResult(
        experiment="table2",
        title=("Table II: p99 service latency normalized to Flash-Sync "
               f"({workload_name}, {load:.0%} load)"),
        columns=["configuration", "p99_service_norm"],
        notes="Paper: AstriFlash ~1.02x, noPS ~7x, noDP ~1.7x.",
    )
    for config_name in CONFIGS:
        result.add_row(
            config_name,
            outcomes[config_name].service_p99_ns / baseline,
        )
    return result
