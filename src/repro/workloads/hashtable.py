"""Chained hash table workload (microbenchmark suite, Sec. V-A).

A real chained hash index: a packed bucket array (many buckets per
page) plus chain entry nodes allocated from a spread heap.  Lookups
touch the bucket page then chase the chain, producing the
pointer-chasing page trace the paper's microbenchmark exercises.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import Step, Workload
from repro.workloads.pagedheap import SpreadHeap
from repro.workloads.zipf import ZipfianGenerator

# A bucket head pointer is 8 bytes: 512 buckets per 4 KiB page.
BUCKETS_PER_PAGE = 512
ENTRY_SIZE_BYTES = 48


class HashIndex:
    """A bucketed chain hash index with page-path lookups.

    Chains are stored as per-bucket lists of ``(key, page)`` tuples in
    insertion order and walked newest-first (``reversed``), which is
    the same visit order as the linked-entry representation this
    replaces — but tuples are built at C speed, which matters because
    workload construction loads tens of thousands of keys per run.
    """

    def __init__(self, num_buckets: int, base_page: int, page_budget: int,
                 expected_entries: int) -> None:
        if num_buckets < 1:
            raise WorkloadError("need at least one bucket")
        self.num_buckets = num_buckets
        bucket_pages = -(-num_buckets // BUCKETS_PER_PAGE)  # ceil
        if bucket_pages >= page_budget:
            raise WorkloadError("page budget too small for the bucket array")
        self._bucket_base = base_page
        self._entry_heap = SpreadHeap(
            base_page + bucket_pages, page_budget - bucket_pages,
            expected_entries,
        )
        self._buckets: List[List[Tuple[int, int]]] = [
            [] for _ in range(num_buckets)
        ]
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    def _bucket_page(self, bucket: int) -> int:
        return self._bucket_base + bucket // BUCKETS_PER_PAGE

    def _bucket_of(self, key: int) -> int:
        # Fibonacci hashing: cheap and well-spread for integer keys.
        return (key * 2654435761) % self.num_buckets

    def insert(self, key: int) -> List[int]:
        """Insert ``key`` (idempotent); returns touched pages."""
        bucket = self._bucket_of(key)
        pages = [self._bucket_page(bucket)]
        entries = self._buckets[bucket]
        for entry_key, entry_page in reversed(entries):
            pages.append(entry_page)
            if entry_key == key:
                return pages
        page = self._entry_heap.allocate(ENTRY_SIZE_BYTES).page
        entries.append((key, page))
        self._size += 1
        pages.append(page)
        return pages

    def bulk_load(self, keys: Iterable[int]) -> None:
        """Insert distinct, not-yet-present keys in one pass.

        Construction-time fast path: equivalent to calling
        :meth:`insert` per key when no key is already in the index —
        entries are allocated from the heap in the same order and
        prepended to the same buckets, so the resulting structure is
        identical — minus the chain walks and touched-page lists that
        bulk construction throws away.
        """
        keys = list(keys)
        pages = self._entry_heap.allocate_pages(len(keys))
        buckets = self._buckets
        num_buckets = self.num_buckets
        if keys and 0 <= min(keys) and max(keys) * 2654435761 <= 2 ** 62:
            # Exact in int64: vectorize the Fibonacci-hash bucket ids.
            bucket_ids = ((np.asarray(keys, dtype=np.int64) * 2654435761)
                          % num_buckets).tolist()
            for key, page, bucket in zip(keys, pages, bucket_ids):
                buckets[bucket].append((key, page))
        else:
            for key, page in zip(keys, pages):
                buckets[(key * 2654435761) % num_buckets].append((key, page))
        self._size += len(keys)

    def lookup(self, key: int) -> Tuple[Optional[int], List[int]]:
        """(entry page or None, touched page path)."""
        # Hottest index operation: _bucket_of/_bucket_page inlined.
        bucket = (key * 2654435761) % self.num_buckets
        pages = [self._bucket_base + bucket // BUCKETS_PER_PAGE]
        for entry_key, entry_page in reversed(self._buckets[bucket]):
            pages.append(entry_page)
            if entry_key == key:
                return entry_page, pages
        return None, pages

    def average_chain_length(self) -> float:
        lengths = [len(entries) for entries in self._buckets]
        return sum(lengths) / len(lengths)


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
                               expected_entries=num_keys)
        self.index.bulk_load(range(num_keys))
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
