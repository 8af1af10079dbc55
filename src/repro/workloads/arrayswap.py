"""Array Swap microbenchmark (Sec. V-A).

"Each operation swaps two array elements, generating both reads and
writes."  A flat 8-byte-element array spans the whole scaled dataset;
element popularity is Zipfian over pages (hot pages concentrate
accesses the way hot objects do), and each swap reads then writes both
element pages.
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.base import Job, Step, Workload
from repro.workloads.zipf import ZipfianGenerator

ELEMENTS_PER_PAGE = 512  # 8-byte elements on a 4 KiB page


class ArraySwapWorkload(Workload):
    """Zipfian element swaps over a page-spanning array."""

    name = "arrayswap"
    rob_occupancy = 48.0

    def __init__(self, dataset_pages: int, seed: int = 42,
                 zipf_s: float = 1.55, ops_per_job: int = 12,
                 compute_ns: float = 150.0) -> None:
        super().__init__(dataset_pages, seed)
        self.ops_per_job = ops_per_job
        self.compute_ns = compute_ns
        self._zipf = ZipfianGenerator(dataset_pages, zipf_s, seed=seed + 1)

    @property
    def num_elements(self) -> int:
        return self.dataset_pages * ELEMENTS_PER_PAGE

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        # _compute is inlined (same draw, same bits — see Workload._compute).
        step = Step
        sample = self._zipf.sample
        rng_random = self._rng_random
        compute_ns = self.compute_ns
        for _ in range(self.ops_per_job):
            page_a = sample()
            page_b = sample()
            # Read both elements, then write both back swapped.
            yield step(compute_ns * (0.5 + rng_random()), page_a)
            yield step(compute_ns * (0.5 + rng_random()), page_b)
            yield step(compute_ns * (0.5 + rng_random()), page_a, is_write=True)
            yield step(compute_ns * (0.5 + rng_random()), page_b, is_write=True)
