"""Sensitivity studies beyond the paper's figures, over TATP.

Two sweeps the paper's design discussion motivates but does not plot:

* :data:`DRAM_FRACTION_SWEEP` — AstriFlash throughput (vs DRAM-only) as
  the DRAM-cache fraction shrinks below / grows above the 3 % design
  point.  Complements Fig. 1 (which only measures miss ratio) by
  closing the loop through the full simulator.
* :data:`THREAD_COUNT_SWEEP` — throughput vs user threads per core:
  the multiprogramming level must cover the flash stall
  (Sec. III-A's M/M/k argument predicts a knee around
  service/compute ≈ 6-8 threads; beyond that returns diminish).
"""

from __future__ import annotations

from repro.harness.common import Figure
from repro.harness.parallel import RunSpec

DRAM_FRACTIONS = (0.01, 0.02, 0.03, 0.05, 0.10)
THREAD_COUNTS = (1, 2, 4, 8, 16, 48)


DRAM_FRACTION_SWEEP = Figure(
    experiment="sensitivity-dram-fraction",
    title="Sensitivity: AstriFlash throughput vs DRAM fraction (tatp)",
    columns=("dram_fraction", "throughput_vs_dram_only", "miss_ratio"),
    notes="The paper's 3% design point sits at the knee.",
    cells=lambda scale, seed, anchor: {
        fraction: RunSpec(
            "astriflash", "tatp", scale, seed=seed,
            config_overrides=(("scale.dram_fraction", fraction),))
        for fraction in DRAM_FRACTIONS},
    rows=lambda scale, results, anchor: [
        (fraction, results[fraction].throughput_jobs_per_s
         / anchor.throughput_jobs_per_s, results[fraction].miss_ratio)
        for fraction in DRAM_FRACTIONS],
    anchor="tatp",
)

THREAD_COUNT_SWEEP = Figure(
    experiment="sensitivity-threads",
    title="Sensitivity: AstriFlash throughput vs threads/core (tatp)",
    columns=("threads_per_core", "throughput_jobs_per_s",
             "core_busy_fraction"),
    notes=("One thread degenerates to Flash-Sync; the knee sits "
           "where the pool covers the flash stall (M/M/k)."),
    cells=lambda scale, seed, anchor: {
        threads: RunSpec("astriflash", "tatp", scale, seed=seed,
                         config_overrides=(
                             ("ult.pending_queue_limit", max(1, threads)),
                             ("ult.threads_per_core", threads)))
        for threads in THREAD_COUNTS},
    rows=lambda scale, results, anchor: [
        (threads, results[threads].throughput_jobs_per_s,
         results[threads].core_busy_fraction)
        for threads in THREAD_COUNTS],
)
