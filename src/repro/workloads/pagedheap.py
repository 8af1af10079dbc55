"""Page-granular heap allocator for workload data structures.

Workload data structures (trees, hash tables, database rows) allocate
their nodes here so every traversal produces an honest page-level
access trace: the allocator decides which 4 KiB page each node lives
on, and pointer chases touch exactly those pages.

Nodes are spread over a fixed page budget with a stride, so a
structure with fewer nodes than the scaled dataset still covers the
whole flash-resident page range (see DESIGN.md on scaling).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ConfigurationError


class PageRef:
    """A reference to an allocated object: page number + offset."""

    __slots__ = ("page", "offset", "size")

    def __init__(self, page: int, offset: int, size: int) -> None:
        self.page = page
        self.offset = offset
        self.size = size

    def __repr__(self) -> str:
        return f"<PageRef page={self.page}+{self.offset} size={self.size}>"


class SpreadHeap:
    """Allocator that spreads objects uniformly over the page budget.

    Used when a scaled-down structure must still exercise the full
    flash-resident page range: node ``i`` lands on page
    ``base + (i * budget) // expected``, preserving uniform coverage.
    """

    def __init__(self, base_page: int, page_budget: int,
                 expected_objects: int) -> None:
        if page_budget < 1:
            raise ConfigurationError("heap needs at least one page")
        if expected_objects < 1:
            raise ConfigurationError("expected object count must be positive")
        self.base_page = base_page
        self.page_budget = page_budget
        self.expected_objects = expected_objects
        self._allocated = 0

    def allocate(self, size: int = 1) -> PageRef:
        index = self._allocated
        self._allocated += 1
        slot = (index * self.page_budget) // max(self.expected_objects, 1)
        page = self.base_page + min(slot, self.page_budget - 1)
        return PageRef(page, 0, size)

    def allocate_pages(self, count: int) -> List[int]:
        """Pages for the next ``count`` allocations, as plain ints.

        Bulk-construction fast path: yields exactly the page sequence
        ``count`` successive :meth:`allocate` calls would, without
        materializing a :class:`PageRef` per object.
        """
        base = self.base_page
        budget = self.page_budget
        expected = max(self.expected_objects, 1)
        start = self._allocated
        end = start + count
        self._allocated = end
        if end * budget <= 2 ** 62:
            # Exact in int64: vectorize the slot computation.
            slots = (np.arange(start, end, dtype=np.int64) * budget) \
                // expected
            np.minimum(slots, budget - 1, out=slots)
            return (slots + base).tolist()
        last = budget - 1
        return [base + min((index * budget) // expected, last)
                for index in range(start, end)]

