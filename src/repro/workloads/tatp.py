"""TATP telecom workload (Sec. V-A).

The Telecom Application Transaction Processing benchmark: short
transactions against a subscriber database.  The paper highlights
'update subscriber data'; we implement the standard mix (read-heavy,
~20 % writes) over four table regions:

* subscribers   — hash index + row pages;
* access info   — fixed-size array keyed by subscriber;
* special facility / call forwarding — fixed-size arrays.

Average transactions take ~10 us (Sec. VI-C uses TATP for the
tail-latency study for exactly that reason).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import WorkloadError
from repro.workloads.base import Step, Workload
from repro.workloads.hashtable import HashIndex
from repro.workloads.zipf import ZipfianGenerator

ROWS_PER_PAGE = 16  # 256-byte subscriber rows


class TatpWorkload(Workload):
    """The TATP transaction mix with Zipfian subscriber popularity."""

    name = "tatp"
    rob_occupancy = 56.0

    # (transaction, weight) — the standard TATP mix.
    MIX = (
        ("get_subscriber_data", 0.35),
        ("get_access_data", 0.35),
        ("get_new_destination", 0.10),
        ("update_location", 0.14),
        ("update_subscriber_data", 0.02),
        ("insert_call_forwarding", 0.04),
    )

    def __init__(self, dataset_pages: int, seed: int = 42,
                 num_subscribers: Optional[int] = None, zipf_s: float = 1.55,
                 transactions_per_job: int = 8,
                 compute_ns: float = 150.0) -> None:
        super().__init__(dataset_pages, seed)
        if num_subscribers is None:
            num_subscribers = min(1 << 16, max(1024, dataset_pages * 4))
        self.num_subscribers = num_subscribers
        self.transactions_per_job = transactions_per_job
        self.compute_ns = compute_ns

        # Region layout over the page budget.
        index_budget = max(8, int(dataset_pages * 0.40))
        region_budget = max(4, (dataset_pages - index_budget) // 3)
        self._access_base = index_budget
        self._facility_base = index_budget + region_budget
        self._forwarding_base = index_budget + 2 * region_budget
        self._region_budget = region_budget

        self.index = HashIndex(
            max(512, num_subscribers // 2), base_page=0,
            page_budget=index_budget, keys=range(num_subscribers),
        )
        self._zipf = ZipfianGenerator(num_subscribers, zipf_s,
                                         seed=seed + 1, permute=False)

        weights = [weight for _, weight in self.MIX]
        if abs(sum(weights) - 1.0) > 1e-9:
            raise WorkloadError("TATP mix weights must sum to 1")
        # Precomputed CDF over the mix: the same left-to-right partial
        # sums _pick_transaction used to accumulate per call.
        cumulative = 0.0
        thresholds = []
        for kind, weight in self.MIX:
            cumulative += weight
            thresholds.append((cumulative, kind))
        self._mix_thresholds = tuple(thresholds)

    # -- table addressing -----------------------------------------------------

    def _array_page(self, base: int, subscriber: int) -> int:
        slot = (subscriber * self._region_budget * ROWS_PER_PAGE
                // self.num_subscribers) // ROWS_PER_PAGE
        return base + min(slot, self._region_budget - 1)

    # -- transactions -------------------------------------------------------------

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        # Transaction bodies are inlined rather than delegated through a
        # per-transaction sub-generator: every step of a TATP job would
        # otherwise resume two generator frames, and this is the hottest
        # step producer in the suite.  Draw order (zipf sample, mix
        # roll, per-step compute jitter) is unchanged; a tuple literal
        # evaluates left to right, so each step's jitter is drawn before
        # its page is computed.
        compute_ns = self.compute_ns
        sample = self._zipf.sample
        rng_random = self._rng_random
        thresholds = self._mix_thresholds
        lookup = self.index.lookup
        array_page = self._array_page
        for _ in range(self.transactions_per_job):
            subscriber = sample()
            roll = rng_random()
            kind = thresholds[-1][1]
            for threshold, candidate in thresholds:
                if roll < threshold:
                    kind = candidate
                    break
            row_page, path = lookup(subscriber)
            if row_page is None:
                raise WorkloadError(f"subscriber {subscriber} missing")

            if kind == "get_subscriber_data":
                for page in path:
                    yield (compute_ns * (0.5 + rng_random()), page, False)
            elif kind == "get_access_data":
                for page in path:
                    yield (compute_ns * (0.5 + rng_random()), page, False)
                yield (compute_ns * (0.5 + rng_random()),
                       array_page(self._access_base, subscriber), False)
            elif kind == "get_new_destination":
                for page in path:
                    yield (compute_ns * (0.5 + rng_random()), page, False)
                yield (compute_ns * (0.5 + rng_random()),
                       array_page(self._facility_base, subscriber), False)
                yield (compute_ns * (0.5 + rng_random()),
                       array_page(self._forwarding_base, subscriber), False)
            elif kind == "update_location":
                for page in path[:-1]:
                    yield (compute_ns * (0.5 + rng_random()), page, False)
                yield (compute_ns * (0.5 + rng_random()), path[-1], True)
            elif kind == "update_subscriber_data":
                for page in path[:-1]:
                    yield (compute_ns * (0.5 + rng_random()), page, False)
                yield (compute_ns * (0.5 + rng_random()), path[-1], True)
                yield (compute_ns * (0.5 + rng_random()),
                       array_page(self._facility_base, subscriber), True)
            elif kind == "insert_call_forwarding":
                for page in path:
                    yield (compute_ns * (0.5 + rng_random()), page, False)
                yield (compute_ns * (0.5 + rng_random()),
                       array_page(self._facility_base, subscriber), False)
                yield (compute_ns * (0.5 + rng_random()),
                       array_page(self._forwarding_base, subscriber), True)
            else:  # pragma: no cover - guarded by MIX validation
                raise WorkloadError(f"unknown TATP transaction {kind!r}")
