"""TPC-C workload (Sec. V-A).

The paper executes 'neworder' transactions (plus the usual payment
traffic) against a warehouse database.  Table regions are laid out as
fixed-size arrays over the page budget — which is how row stores place
fixed-schema rows — with the stock table dominating capacity, items a
small hot region, and order lines appended to a circular log region.

TPC-C is the most computationally intensive workload in the suite: its
compute segments are longer and its ROB runs fuller, so pipeline
flushes on a miss cost the most (the Sec. VI-A observation that TPCC
degrades most under AstriFlash).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.workloads.base import Step, Workload
from repro.workloads.zipf import ZipfianGenerator

ROWS_PER_PAGE = 8  # 512-byte rows


class TpccWorkload(Workload):
    """New-order + payment transactions over array-laid tables."""

    name = "tpcc"
    rob_occupancy = 112.0  # compute-heavy: big window when flushed

    NEW_ORDER_WEIGHT = 0.5  # remaining traffic is payment

    samplers = (("_customer_zipf", 1), ("_item_zipf", 2))
    run_state = {"_orderline_cursor": 0}

    def __init__(self, dataset_pages: int, seed: int = 42,
                 num_customers: Optional[int] = None, zipf_s: float = 1.50,
                 transactions_per_job: int = 1,
                 compute_ns: float = 400.0,
                 items_per_order: int = 10) -> None:
        super().__init__(dataset_pages, seed)
        if num_customers is None:
            num_customers = min(1 << 16, max(1024, dataset_pages * 2))
        self.num_customers = num_customers
        self.transactions_per_job = transactions_per_job
        self.compute_ns = compute_ns
        self.items_per_order = items_per_order

        # Region layout: stock dominates, items small and hot.
        self._item_budget = max(2, dataset_pages // 64)
        self._warehouse_budget = max(1, dataset_pages // 256)
        self._customer_budget = max(4, dataset_pages // 4)
        self._orderline_budget = max(4, dataset_pages // 64)
        used = (self._item_budget + self._warehouse_budget
                + self._customer_budget + self._orderline_budget)
        self._stock_budget = max(4, dataset_pages - used)

        self._item_base = 0
        self._warehouse_base = self._item_budget
        self._customer_base = self._warehouse_base + self._warehouse_budget
        self._stock_base = self._customer_base + self._customer_budget
        self._orderline_base = self._stock_base + self._stock_budget

        self.num_items = self._stock_budget * ROWS_PER_PAGE
        self._customer_zipf = ZipfianGenerator(
            num_customers, zipf_s, seed=seed + 1, permute=False
        )
        self._item_zipf = ZipfianGenerator(
            self.num_items, zipf_s, seed=seed + 2, permute=False
        )

    # -- table addressing ----------------------------------------------------

    def _customer_page(self, customer: int) -> int:
        slot = customer * self._customer_budget // self.num_customers
        return self._customer_base + min(slot, self._customer_budget - 1)

    def _stock_page(self, item: int) -> int:
        return self._stock_base + (item // ROWS_PER_PAGE) % self._stock_budget

    def _item_page(self, item: int) -> int:
        return self._item_base + (item % (self._item_budget * ROWS_PER_PAGE)) \
            // ROWS_PER_PAGE

    def _warehouse_page(self, customer: int) -> int:
        return self._warehouse_base + customer % self._warehouse_budget

    def _next_orderline_page(self) -> int:
        page = self._orderline_base + \
            (self._orderline_cursor // ROWS_PER_PAGE) % self._orderline_budget
        self._orderline_cursor += 1
        return page

    # -- transactions ------------------------------------------------------------

    def _new_order_steps(self, customer: int) -> Iterator[Step]:
        compute_ns = self.compute_ns
        rng_random = self._rng_random
        sample = self._item_zipf.sample
        warehouse = self._warehouse_page(customer)
        yield (compute_ns * (0.5 + rng_random()), warehouse, False)
        # District row: read-modify-write of next_o_id.
        yield (compute_ns * (0.5 + rng_random()), warehouse, True)
        yield (compute_ns * (0.5 + rng_random()),
               self._customer_page(customer), False)
        for _ in range(self.items_per_order):
            item = sample()
            stock = self._stock_page(item)
            yield (compute_ns * (0.5 + rng_random()), self._item_page(item),
                   False)
            yield (compute_ns * (0.5 + rng_random()), stock, False)
            yield (compute_ns * (0.5 + rng_random()), stock, True)
            # The jitter is drawn before the order-line cursor advances
            # (a tuple literal evaluates left to right).
            yield (compute_ns * (0.5 + rng_random()),
                   self._next_orderline_page(), True)

    def _payment_steps(self, customer: int) -> Iterator[Step]:
        compute_ns = self.compute_ns
        rng_random = self._rng_random
        customer_page = self._customer_page(customer)
        yield (compute_ns * (0.5 + rng_random()),
               self._warehouse_page(customer), True)
        yield (compute_ns * (0.5 + rng_random()), customer_page, False)
        yield (compute_ns * (0.5 + rng_random()), customer_page, True)

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        for _ in range(self.transactions_per_job):
            customer = self._customer_zipf.sample()
            if self._rng_random() < self.NEW_ORDER_WEIGHT:
                yield from self._new_order_steps(customer)
            else:
                yield from self._payment_steps(customer)
