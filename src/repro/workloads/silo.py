"""Silo workload: OCC transactions over the Masstree index (Sec. V-A).

Silo is an in-memory OLTP engine using optimistic concurrency control
over Masstree.  Each transaction collects a read set and a write set
through index lookups, then validates (re-touching the read-set leaf
pages to check TIDs) and commits (writing value pages and appending to
a log region) — the classic Silo protocol phases, which is what shapes
its page-access pattern: re-visits to recently-read pages plus a
sequential write stream.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Step, Workload
from repro.workloads.masstree import Masstree
from repro.workloads.pagedheap import SpreadHeap
from repro.workloads.zipf import ZipfianGenerator

LOG_RECORDS_PER_PAGE = 64


class SiloWorkload(Workload):
    """Read-mostly OCC transactions against a Masstree-indexed store."""

    name = "silo"
    rob_occupancy = 64.0
    # OCC state: per-leaf TIDs plus abort/commit accounting.
    run_state = {"_log_cursor": 0, "_leaf_versions": {}, "aborts": 0,
                 "commits": 0, "retry_exhaustions": 0}

    def __init__(self, dataset_pages: int, seed: int = 42,
                 num_keys: Optional[int] = None, zipf_s: float = 1.55,
                 transactions_per_job: int = 3,
                 reads_per_txn: int = 3, writes_per_txn: int = 1,
                 compute_ns: float = 160.0) -> None:
        super().__init__(dataset_pages, seed)
        if num_keys is None:
            num_keys = min(1 << 16, max(1024, dataset_pages * 2))
        self.num_keys = num_keys
        self.transactions_per_job = transactions_per_job
        self.reads_per_txn = reads_per_txn
        self.writes_per_txn = writes_per_txn
        self.compute_ns = compute_ns

        index_budget = max(16, dataset_pages // 8)
        log_budget = max(4, dataset_pages // 16)
        value_budget = dataset_pages - index_budget - log_budget
        expected_nodes = max(16, 2 * num_keys // 32)
        self.tree = Masstree(SpreadHeap(0, index_budget, expected_nodes))
        value_pages = SpreadHeap(index_budget, value_budget,
                                 num_keys).allocate_pages(num_keys)
        for key, value_page in enumerate(value_pages):
            self.tree.insert(key, value_page)
        self._log_base = index_budget + value_budget
        self._log_budget = log_budget
        self._zipf = ZipfianGenerator(num_keys, zipf_s, seed=seed + 1,
                                         permute=False)
        self.max_retries = 3

    def _next_log_page(self) -> int:
        page = self._log_base + \
            (self._log_cursor // LOG_RECORDS_PER_PAGE) % self._log_budget
        self._log_cursor += 1
        return page

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        """The job's OCC transactions, each retried on validation
        conflicts.

        Leaf TIDs (version counters per index leaf) provide genuine
        conflict detection: because job step generators from different
        simulated cores interleave, a concurrent commit to a read-set
        leaf between a transaction's read and its validation bumps
        the TID and forces a real abort-and-retry, wasting the executed
        steps exactly as Silo would.  The transaction body is inlined,
        so each step resumes one generator frame.
        """
        compute = self.compute_ns
        half = compute * 0.5
        rng_random = self._rng_random
        sample = self._zipf.sample
        get = self.tree.get
        for _ in range(self.transactions_per_job):
            for _attempt in range(self.max_retries + 1):
                read_set: List[Tuple[int, int]] = []   # (leaf, TID seen)
                write_set: List[Tuple[int, int]] = []  # (leaf, value page)

                # Execution phase: index lookups + value reads,
                # recording the TID of every read-set leaf.
                for _ in range(self.reads_per_txn):
                    key = sample()
                    value_page, path = get(key)
                    if value_page is None:
                        raise WorkloadError(
                            f"key {key} missing from Silo store")
                    for page in path:
                        yield (compute * (0.5 + rng_random()), page, False)
                    yield (compute * (0.5 + rng_random()), value_page, False)
                    read_set.append(
                        (path[-1], self._leaf_versions.get(path[-1], 0)))
                for _ in range(self.writes_per_txn):
                    key = sample()
                    value_page, path = get(key)
                    if value_page is None:
                        raise WorkloadError(
                            f"key {key} missing from Silo store")
                    for page in path:
                        yield (compute * (0.5 + rng_random()), page, False)
                    write_set.append((path[-1], value_page))

                # Validation phase: re-check TIDs on read-set leaf pages.
                conflicted = False
                for leaf_page, seen_version in read_set:
                    yield (half * (0.5 + rng_random()), leaf_page, False)
                    if self._leaf_versions.get(leaf_page, 0) != seen_version:
                        conflicted = True
                if conflicted:
                    self.aborts += 1
                    continue  # retry the whole transaction

                # Commit phase: install writes, bump leaf TIDs, append
                # log.
                for leaf_page, value_page in write_set:
                    yield (compute * (0.5 + rng_random()), value_page, True)
                    yield (half * (0.5 + rng_random()), leaf_page, True)
                    self._leaf_versions[leaf_page] = \
                        self._leaf_versions.get(leaf_page, 0) + 1
                # The jitter is drawn before the log cursor advances (a
                # tuple literal evaluates left to right).
                yield (half * (0.5 + rng_random()), self._next_log_page(),
                       True)
                self.commits += 1
                break
            else:
                # Retries exhausted: count it and move on (Silo would
                # back off).
                self.retry_exhaustions += 1
