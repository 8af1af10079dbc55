"""Figure 10: 99th-percentile tail latency vs load (TATP).

Open-loop Poisson arrivals; the paper sweeps the mean inter-arrival
time and plots p99 response latency (normalized to the DRAM-only
average service time) against achieved throughput (normalized to the
DRAM-only maximum, the saturation anchor).  Shape: AstriFlash's p99 is
higher at low load (requests that touch flash), converges as queueing
dominates, and matches the DRAM-only tail at only a few percent lower
load.
"""

from __future__ import annotations

from repro.harness.common import Figure
from repro.harness.parallel import RunSpec, arrival_spec

LOAD_POINTS = (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98)

#: Config presets this figure compares (also drives ``repro loadgen``
#: and the flash-backed subset drives ``repro chaos``).
CONFIGS = ("dram-only", "astriflash")


def _cells(scale, seed, anchor):
    # A load is an *aggregate* share of the saturation throughput.
    return {(load, config): RunSpec(
                config, "tatp", scale, seed=seed, arrivals=arrival_spec(
                    "poisson", load * anchor.throughput_jobs_per_s,
                    scale.num_cores, seed))
            for load in LOAD_POINTS for config in CONFIGS}


def _rows(scale, results, anchor):
    for load in LOAD_POINTS:
        row = [load]
        for config in CONFIGS:
            result = results[(load, config)]
            row.append(result.throughput_jobs_per_s
                       / anchor.throughput_jobs_per_s)
            row.append(result.response_p99_ns / anchor.service_mean_ns)
        yield row


FIGURE = Figure(
    experiment="fig10",
    title="Fig. 10: p99 latency (x DRAM-only avg service) vs load (tatp)",
    columns=("offered_load", "dram_only_tput", "dram_only_p99",
             "astriflash_tput", "astriflash_p99"),
    notes=("Paper: AstriFlash at ~93% load matches the DRAM-only "
           "p99 at ~96% load."),
    cells=_cells, rows=_rows, anchor="tatp",
)
