"""KV-store SET/GET workload for the write path (DESIGN.md §4j).

A memcached/Flashield-style key-value service over the existing zipf
machinery: every operation hashes its key to a bucket in a packed
index, then touches the key's value page — a read for GET, a write for
SET.  ``write_ratio`` sets the SET fraction, so the same workload
serves the read-mostly and write-heavy presets the admission-policy
sweep compares.

Value placement is hash-spread (Fibonacci hashing over the value
heap): hot keys land on unrelated pages instead of packing the head of
the dataset, which is what makes the dirty-page stream wide enough to
exercise writeback, GC, and admission filtering.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import WorkloadError
from repro.workloads.base import Step, Workload
from repro.workloads.zipf import ZipfianGenerator

#: Bucket head pointers are 8 bytes: 512 buckets per 4 KiB page.
BUCKETS_PER_PAGE = 512
#: Small values (512 B) pack eight to a page.
VALUES_PER_PAGE = 8


class KvStoreWorkload(Workload):
    """Zipfian SET/GET mix with a configurable write ratio."""

    name = "kvstore"
    rob_occupancy = 48.0

    def __init__(self, dataset_pages: int, seed: int = 42,
                 num_keys: Optional[int] = None, zipf_s: float = 1.3,
                 ops_per_job: int = 16, compute_ns: float = 120.0,
                 write_ratio: float = 0.5) -> None:
        super().__init__(dataset_pages, seed)
        if not 0.0 <= write_ratio <= 1.0:
            raise WorkloadError("write_ratio must be in [0, 1]")
        if num_keys is None:
            num_keys = min(1 << 16, max(1024, dataset_pages * 4))
        self.num_keys = num_keys
        self.zipf_s = zipf_s
        self.ops_per_job = ops_per_job
        self.compute_ns = compute_ns
        self.write_ratio = write_ratio

        index_pages = -(-num_keys // BUCKETS_PER_PAGE)  # ceil
        if index_pages >= dataset_pages:
            raise WorkloadError("dataset too small for the KV index")
        self._index_pages = index_pages
        self._value_pages = dataset_pages - index_pages
        self._value_slots = self._value_pages * VALUES_PER_PAGE
        self._zipf = ZipfianGenerator(num_keys, zipf_s, seed=seed + 1,
                                      permute=False)

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        # Per-op locals bound once per job.
        sample = self._zipf.sample
        rng_random = self._rng_random
        compute_ns = self.compute_ns
        write_ratio = self.write_ratio
        index_pages = self._index_pages
        value_slots = self._value_slots
        for _ in range(self.ops_per_job):
            key = sample()
            is_set = rng_random() < write_ratio
            # Bucket probe: always a read of the packed index.
            bucket_page = (key * 2654435761) % self.num_keys \
                // BUCKETS_PER_PAGE
            yield (compute_ns * (0.5 + rng_random()), bucket_page, False)
            # Value access: hash-spread over the value heap.
            slot = (key * 2654435761) % value_slots
            value_page = index_pages + slot // VALUES_PER_PAGE
            yield (compute_ns * (0.5 + rng_random()), value_page, is_set)
