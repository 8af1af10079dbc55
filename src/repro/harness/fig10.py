"""Figure 10: 99th-percentile tail latency vs load (TATP).

Open-loop Poisson arrivals; the paper sweeps the mean inter-arrival
time and plots p99 response latency (normalized to the DRAM-only
average service time) against achieved throughput (normalized to the
DRAM-only maximum).  Shape: AstriFlash's p99 is higher at low load
(requests that touch flash), converges as queueing dominates, and
matches the DRAM-only tail at only a few percent lower load.

The saturation run pins the axis normalizations; after it, every
(load, config) point is independent and fans out through
:mod:`repro.harness.parallel`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.harness.common import ExperimentResult, resolve_scale
from repro.harness.parallel import RunSpec, poisson, run_specs

LOAD_POINTS: Sequence[float] = (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98)

#: Config presets this figure compares (also drives ``repro loadgen``
#: and the flash-backed subset drives ``repro chaos``).
CONFIGS: Sequence[str] = ("dram-only", "astriflash")


def run(scale="quick", seed: int = 42, workload_name: str = "tatp",
        load_points: Sequence[float] = LOAD_POINTS,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Regenerate Figure 10's two curves."""
    scale = resolve_scale(scale)
    # DRAM-only saturation throughput defines the x-axis normalization;
    # its mean service time defines the y-axis normalization.
    (saturation,) = run_specs(
        [RunSpec("dram-only", workload_name, scale, seed=seed)], jobs=jobs)
    max_rate = saturation.throughput_jobs_per_s
    service_norm = saturation.service_mean_ns

    result = ExperimentResult(
        experiment="fig10",
        title=(f"Fig. 10: p99 latency (x DRAM-only avg service) vs load "
               f"({workload_name})"),
        columns=["offered_load", "dram_only_tput", "dram_only_p99",
                 "astriflash_tput", "astriflash_p99"],
        notes=("Paper: AstriFlash at ~93% load matches the DRAM-only "
               "p99 at ~96% load."),
    )
    points = [(load, config_name)
              for load in load_points
              for config_name in CONFIGS]

    def load_arrivals(load: float):
        # Offered load is an *aggregate* fraction of the DRAM-only
        # saturation rate; each core runs its own arrival stream, so
        # the per-core mean gap is num_cores / aggregate_rate (the
        # convention documented in repro.workloads.arrival).
        aggregate_qps = load * max_rate
        per_core_interarrival_ns = scale.num_cores / aggregate_qps * 1e9
        return poisson(per_core_interarrival_ns, seed=seed + 1)

    specs = [
        RunSpec(config_name, workload_name, scale, seed=seed,
                arrivals=load_arrivals(load))
        for load, config_name in points
    ]
    outcomes = dict(zip(points, run_specs(specs, jobs=jobs)))
    for load in load_points:
        row = [load]
        for config_name in CONFIGS:
            outcome = outcomes[(load, config_name)]
            row.append(outcome.throughput_jobs_per_s / max_rate)
            row.append(outcome.response_p99_ns / service_norm)
        result.add_row(*row)
    return result
