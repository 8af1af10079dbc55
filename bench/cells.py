"""The benchmark's workloads, each an ordered list of simulation cells.

A cell is one closed- or open-loop run of one (config, workload) pair,
executed through the public ``repro.harness.parallel.run_specs``.  The
cell lists are built from ``--seed`` alone, so the same seed always
gives the same inputs; replicated workloads use seeds S..S+k-1.

Imported only by the child process (``sweep.py``), which has the
simulator's ``src`` directory on its path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.harness import fig9, fig10
from repro.harness.common import resolve_scale
from repro.harness.parallel import RunSpec, poisson
from repro.writes import bench as writes_bench

#: Workload name -> number of consecutive seeds it replicates over.
#: ``fig9-full`` and ``openloop-full`` are the paper's whole grids at
#: one seed, about 20 s a sweep on a 2-vCPU host.  The replicated grids
#: are cut in seeds only (the full figures use 12 and 10), to about
#: 10 s a sweep, so that the benchmark's traced passes fit its time
#: budget (see README.md).
SEEDS = {
    "fig9-full": 1,
    "fig9-quick": 8,
    "openloop-full": 1,
    "kv-writes": 6,
}

WORKLOADS = tuple(SEEDS)

#: Fig. 10's workloads: the array micro-benchmark and the two OLTP
#: workloads, each at every Fig. 10 load (share of saturation).
OPENLOOP_WORKLOADS = ("arrayswap", "tatp", "tpcc")

#: ``repro writes`` grid points.
KV_WRITE_RATIOS = (0.1, 0.5)


@dataclass(frozen=True)
class Cell:
    """One simulation of a sweep.

    ``load`` and ``anchor`` mark an open-loop cell: its Poisson rate is
    ``load`` times the throughput of the saturation cell ``anchor``,
    so its spec exists only once that cell has run.
    """

    id: str
    spec: RunSpec
    load: Optional[float] = None
    anchor: Optional[str] = None

    def resolve(self, results: Dict[str, object]) -> RunSpec:
        """The runnable spec, given the results of earlier cells."""
        if self.anchor is None:
            return self.spec
        if self.anchor not in results:
            raise RuntimeError(f"anchor cell {self.anchor} has no result")
        scale = resolve_scale(self.spec.scale)
        max_rate = results[self.anchor].throughput_jobs_per_s
        # Same convention as repro.harness.fig10: the load is a share of
        # the aggregate saturation rate, each core runs its own stream.
        per_core_ns = scale.num_cores / (self.load * max_rate) * 1e9
        return dataclasses.replace(
            self.spec, arrivals=poisson(per_core_ns, seed=self.spec.seed + 1))


def _fig9(scale_name: str, workloads, seeds: List[int]) -> List[Cell]:
    scale = resolve_scale(scale_name)
    return [
        Cell(f"{config}/{workload}@{scale_name}/s{seed}",
             RunSpec(config, workload, scale, seed=seed))
        for seed in seeds
        for workload in workloads
        for config in fig9.CONFIGS
    ]


def _openloop(seed: int) -> List[Cell]:
    """Per workload, the closed DRAM-only saturation cell, then the
    Poisson loads."""
    scale = resolve_scale("full")
    plan = []
    for workload in OPENLOOP_WORKLOADS:
        anchor = f"saturation/{workload}@full/s{seed}"
        plan.append(Cell(anchor, RunSpec("dram-only", workload, scale,
                                         seed=seed)))
        plan.extend(
            Cell(f"{config}/{workload}@full/load{load:g}/s{seed}",
                 RunSpec(config, workload, scale, seed=seed),
                 load=load, anchor=anchor)
            for load in fig10.LOAD_POINTS
            for config in fig10.CONFIGS)
    return plan


def _kv_writes(seeds: List[int]) -> List[Cell]:
    scale = writes_bench.writes_scale(resolve_scale("quick"))
    return [
        Cell(f"{preset}/{policy}/wr{ratio:g}/s{seed}",
             RunSpec(preset, "kvstore", scale, seed=seed,
                     workload_overrides=tuple(sorted(
                         writes_bench.KV_SWEEP_OVERRIDES
                         + (("write_ratio", ratio),))),
                     config_overrides=writes_bench.writes_overrides(policy)))
        for seed in seeds
        for preset in writes_bench.DEFAULT_PRESETS
        for ratio in KV_WRITE_RATIOS
        for policy in writes_bench.POLICY_ORDER
    ]


def plan(workload: str, seed: int) -> List[Cell]:
    """The cells of ``workload`` for base seed ``seed``, in run order."""
    if workload not in SEEDS:
        raise KeyError(f"unknown workload {workload!r}; known: "
                       f"{', '.join(WORKLOADS)}")
    seeds = list(range(seed, seed + SEEDS[workload]))
    if workload == "fig9-full":
        return _fig9("full", resolve_scale("full").workloads, seeds)
    if workload == "fig9-quick":
        return _fig9("quick", resolve_scale("quick").workloads, seeds)
    if workload == "openloop-full":
        return _openloop(seed)
    return _kv_writes(seeds)
