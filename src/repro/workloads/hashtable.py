"""Chained hash table workload (microbenchmark suite, Sec. V-A).

A real chained hash index: a packed bucket array (many buckets per
page) plus chain entry nodes allocated from a spread heap.  Lookups
touch the bucket page then chase the chain, producing the
pointer-chasing page trace the paper's microbenchmark exercises.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import Lookup, Step, Workload
from repro.workloads.pagedheap import SpreadHeap
from repro.workloads.zipf import ZipfianGenerator

# A bucket head pointer is 8 bytes: 512 buckets per 4 KiB page.
BUCKETS_PER_PAGE = 512
HASH_MULTIPLIER = 2654435761


class HashIndex:
    """A bucketed chain hash index over a fixed key set, with page-path
    lookups.

    Built once from distinct keys: key ``i`` gets the ``i``-th entry
    page of a spread heap past the bucket array.  The chains are two
    flat ``array('q')`` columns (keys and entry pages) sorted stably by
    bucket, plus each bucket's start offset, so a bucket's chain is a
    contiguous slice in insertion order; a lookup walks it from the
    end, the newest-first visit order of a linked chain.

    A key's path never changes once built, so :meth:`lookup` memoizes
    ``key -> (entry page, path)`` on first use; every session over the
    dataset shares the memo, and a path is a tuple, so none can change
    another's entry.
    """

    def __init__(self, num_buckets: int, base_page: int, page_budget: int,
                 keys: Sequence[int]) -> None:
        if num_buckets < 1:
            raise WorkloadError("need at least one bucket")
        self.num_buckets = num_buckets
        bucket_pages = -(-num_buckets // BUCKETS_PER_PAGE)  # ceil
        if bucket_pages >= page_budget:
            raise WorkloadError("page budget too small for the bucket array")
        self._bucket_base = base_page
        if keys and max(-min(keys), max(keys)) * HASH_MULTIPLIER >= 2 ** 63:
            raise WorkloadError("hash keys overflow int64 bucket ids")
        entry_pages = SpreadHeap(
            base_page + bucket_pages, page_budget - bucket_pages, len(keys),
        ).allocate_pages(len(keys))
        key_column = np.asarray(keys, dtype=np.int64)
        # Fibonacci hashing: cheap and well-spread for integer keys.
        buckets = key_column * HASH_MULTIPLIER % num_buckets
        order = np.argsort(buckets, kind="stable")
        self._keys = array("q", key_column[order].tobytes())
        self._entry_pages = array(
            "q", np.asarray(entry_pages, dtype=np.int64)[order].tobytes())
        starts = np.zeros(num_buckets + 1, dtype=np.int64)
        np.cumsum(np.bincount(buckets, minlength=num_buckets),
                  out=starts[1:])
        self._starts = array("q", starts.tobytes())
        self._memo: Dict[int, Lookup] = {}

    @property
    def size(self) -> int:
        return len(self._keys)

    def lookup(self, key: int) -> Lookup:
        """(entry page or None, touched page path)."""
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._walk(key)
        return hit

    def _walk(self, key: int) -> Lookup:
        bucket = key * HASH_MULTIPLIER % self.num_buckets
        pages = [self._bucket_base + bucket // BUCKETS_PER_PAGE]
        keys = self._keys
        entry_pages = self._entry_pages
        for slot in range(self._starts[bucket + 1] - 1,
                          self._starts[bucket] - 1, -1):
            entry_page = entry_pages[slot]
            pages.append(entry_page)
            if keys[slot] == key:
                return entry_page, tuple(pages)
        return None, tuple(pages)


class HashTableWorkload(Workload):
    """Zipfian key lookups/updates against the chained hash index."""

    name = "hashtable"
    rob_occupancy = 48.0

    def __init__(self, dataset_pages: int, seed: int = 42,
                 num_keys: Optional[int] = None, zipf_s: float = 1.55,
                 ops_per_job: int = 16, compute_ns: float = 150.0,
                 write_fraction: float = 0.10) -> None:
        super().__init__(dataset_pages, seed)
        if num_keys is None:
            num_keys = min(1 << 16, max(1024, dataset_pages * 2))
        self.num_keys = num_keys
        self.ops_per_job = ops_per_job
        self.compute_ns = compute_ns
        self.write_fraction = write_fraction

        num_buckets = max(BUCKETS_PER_PAGE, num_keys // 2)
        self.index = HashIndex(num_buckets, base_page=0,
                               page_budget=dataset_pages,
                               keys=range(num_keys))
        self._zipf = ZipfianGenerator(num_keys, zipf_s, seed=seed + 1,
                                         permute=False)

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        sample = self._zipf.sample
        lookup = self.index.lookup
        rng_random = self._rng_random
        compute_ns = self.compute_ns
        write_fraction = self.write_fraction
        for _ in range(self.ops_per_job):
            key = sample()
            entry_page, path = lookup(key)
            if entry_page is None:
                raise WorkloadError(f"key {key} missing from hash index")
            is_write = rng_random() < write_fraction
            # All path pages are reads; the final entry access may be a
            # value update (write to the entry's page).
            for page in path[:-1]:
                yield (compute_ns * (0.5 + rng_random()), page, False)
            yield (compute_ns * (0.5 + rng_random()), path[-1], is_write)
