"""Workloads: Zipfian generator, paged data structures, the seven
evaluated applications, and arrival processes."""

from repro.workloads.arrayswap import ArraySwapWorkload
from repro.workloads.arrival import (
    ArrivalProcess,
    ClosedLoop,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    arrival_from_spec,
)
from repro.workloads.base import Job, Step, Workload
from repro.workloads.hashtable import HashIndex, HashTableWorkload
from repro.workloads.masstree import Masstree, MasstreeWorkload
from repro.workloads.pagedheap import PageRef, SpreadHeap
from repro.workloads.rbtree import RbtWorkload, RedBlackTree
from repro.workloads.registry import (
    EVALUATED_WORKLOADS,
    make_workload,
)
from repro.workloads.silo import SiloWorkload
from repro.workloads.tatp import TatpWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.zipf import ZipfianGenerator

__all__ = [
    "ArraySwapWorkload",
    "ArrivalProcess",
    "ClosedLoop",
    "DiurnalArrivals",
    "EVALUATED_WORKLOADS",
    "HashIndex",
    "HashTableWorkload",
    "Job",
    "MMPPArrivals",
    "Masstree",
    "MasstreeWorkload",
    "PageRef",
    "PoissonArrivals",
    "RbtWorkload",
    "RedBlackTree",
    "SiloWorkload",
    "SpreadHeap",
    "Step",
    "TatpWorkload",
    "TpccWorkload",
    "Workload",
    "ZipfianGenerator",
    "arrival_from_spec",
    "make_workload",
]
