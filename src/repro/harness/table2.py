"""Table II: 99th-percentile service latency normalized to Flash-Sync.

The paper compares the service-latency distribution (dispatch to
completion, miss waits included) of AstriFlash against the ablations:

* AstriFlash       ~1.02x Flash-Sync — the priority scheduler resumes a
  pending job right after its page arrives (modulo the current job);
* AstriFlash-noPS  ~7x — FIFO starves pending jobs behind new work;
* AstriFlash-noDP  ~1.7x — cold page-table walks are served from flash.

Runs use open-loop arrivals at a moderate share of the DRAM-only
saturation throughput, so the comparison captures scheduling policy
rather than saturation queueing.
"""

from __future__ import annotations

from repro.harness.common import Figure
from repro.harness.parallel import RunSpec, arrival_spec

CONFIGS = ("flash-sync", "astriflash", "astriflash-nops", "astriflash-nodp")
LOAD = 0.4


def _cells(scale, seed, anchor):
    arrivals = arrival_spec("poisson", LOAD * anchor.throughput_jobs_per_s,
                            scale.num_cores, seed)
    return {config: RunSpec(config, "tatp", scale, seed=seed,
                            arrivals=arrivals) for config in CONFIGS}


def _rows(scale, results, anchor):
    return [(config, results[config].service_p99_ns
             / results["flash-sync"].service_p99_ns) for config in CONFIGS]


FIGURE = Figure(
    experiment="table2",
    title=("Table II: p99 service latency normalized to Flash-Sync "
           f"(tatp, {LOAD:.0%} load)"),
    columns=("configuration", "p99_service_norm"),
    notes="Paper: AstriFlash ~1.02x, noPS ~7x, noDP ~1.7x.",
    cells=_cells, rows=_rows, anchor="tatp",
)
