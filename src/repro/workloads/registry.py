"""Workload registry: the seven evaluated applications by name."""

from __future__ import annotations

from typing import Dict, List, Type

from repro.workloads.arrayswap import ArraySwapWorkload
from repro.workloads.base import Workload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.kvstore import KvStoreWorkload
from repro.workloads.masstree import MasstreeWorkload
from repro.workloads.rbtree import RbtWorkload
from repro.workloads.silo import SiloWorkload
from repro.workloads.tatp import TatpWorkload
from repro.workloads.tpcc import TpccWorkload

_REGISTRY: Dict[str, Type[Workload]] = {
    ArraySwapWorkload.name: ArraySwapWorkload,
    RbtWorkload.name: RbtWorkload,
    HashTableWorkload.name: HashTableWorkload,
    TatpWorkload.name: TatpWorkload,
    TpccWorkload.name: TpccWorkload,
    SiloWorkload.name: SiloWorkload,
    MasstreeWorkload.name: MasstreeWorkload,
    # Write-path workload (DESIGN.md §4j): registered but deliberately
    # outside EVALUATED_WORKLOADS — the paper's figures stay on the
    # seven read-dominant applications; `repro writes` sweeps this one.
    KvStoreWorkload.name: KvStoreWorkload,
}

#: The evaluation order used in the paper's figures.
EVALUATED_WORKLOADS: List[str] = [
    "arrayswap",
    "rbtree",
    "hashtable",
    "tatp",
    "tpcc",
    "silo",
    "masstree",
]


def workload_class(name: str) -> Type[Workload]:
    """The workload class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def make_workload(name: str, dataset_pages: int, seed: int = 42,
                  **kwargs) -> Workload:
    """Instantiate a workload by registry name."""
    return workload_class(name)(dataset_pages, seed=seed, **kwargs)
