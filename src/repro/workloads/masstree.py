"""Masstree-style ordered index and its TailBench-like workload.

The paper ports Masstree from TailBench (Sec. V-A).  We implement the
core of what matters at page granularity: a high-fanout B+ tree whose
nodes live on 4 KiB pages (allocated from a :class:`SpreadHeap` so the
index exercises the scaled page range), with every lookup returning the
page path the traversal touched.  Masstree's trie-of-B+-trees layering
for long keys is collapsed to a single B+ tree over 64-bit keys — the
layering only changes constant factors for short keys, which is all the
workload uses.

Values live in a row store spread over the rest of the page budget, so
value pages (not index pages) dominate capacity, as in a real store.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Step, Workload
from repro.workloads.pagedheap import SpreadHeap
from repro.workloads.zipf import ZipfianGenerator

LEAF_CAPACITY = 32
INTERIOR_FANOUT = 16


class _LeafNode:
    __slots__ = ("page", "keys", "values", "next_leaf")

    def __init__(self, page: int) -> None:
        self.page = page
        self.keys: List[int] = []
        self.values: List[int] = []  # value page numbers
        self.next_leaf: Optional["_LeafNode"] = None


class _InteriorNode:
    __slots__ = ("page", "keys", "children")

    def __init__(self, page: int) -> None:
        self.page = page
        self.keys: List[int] = []
        self.children: List[object] = []


class Masstree:
    """A B+ tree with page-resident nodes and page-path lookups."""

    def __init__(self, index_heap: SpreadHeap,
                 leaf_capacity: int = LEAF_CAPACITY,
                 interior_fanout: int = INTERIOR_FANOUT) -> None:
        if leaf_capacity < 2 or interior_fanout < 3:
            raise WorkloadError("degenerate tree geometry")
        self._heap = index_heap
        self.leaf_capacity = leaf_capacity
        self.interior_fanout = interior_fanout
        self._root: object = _LeafNode(self._new_page())
        self._size = 0
        self._height = 1

    def _new_page(self) -> int:
        return self._heap.allocate().page

    @property
    def size(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    # -- search --------------------------------------------------------------

    def get(self, key: int) -> Tuple[Optional[int], List[int]]:
        """Value page for ``key`` (None if absent) plus the index page
        path the traversal touched, root first."""
        path: List[int] = []
        node = self._root
        while isinstance(node, _InteriorNode):
            path.append(node.page)
            slot = bisect.bisect_right(node.keys, key)
            node = node.children[slot]
        path.append(node.page)
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node.values[index], path
        return None, path

    # -- insert --------------------------------------------------------------

    def insert(self, key: int, value_page: int) -> List[int]:
        """Insert or update; returns the touched index page path."""
        path_nodes: List[_InteriorNode] = []
        node = self._root
        while isinstance(node, _InteriorNode):
            path_nodes.append(node)
            slot = bisect.bisect_right(node.keys, key)
            node = node.children[slot]
        leaf: _LeafNode = node
        touched = [n.page for n in path_nodes] + [leaf.page]

        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = value_page
            return touched
        leaf.keys.insert(index, key)
        leaf.values.insert(index, value_page)
        self._size += 1

        if len(leaf.keys) > self.leaf_capacity:
            self._split_leaf(leaf, path_nodes)
        return touched

    def _split_leaf(self, leaf: _LeafNode,
                    ancestors: List[_InteriorNode]) -> None:
        mid = len(leaf.keys) // 2
        sibling = _LeafNode(self._new_page())
        sibling.keys = leaf.keys[mid:]
        sibling.values = leaf.values[mid:]
        del leaf.keys[mid:]
        del leaf.values[mid:]
        sibling.next_leaf = leaf.next_leaf
        leaf.next_leaf = sibling
        self._insert_in_parent(leaf, sibling.keys[0], sibling, ancestors)

    def _insert_in_parent(self, left: object, split_key: int, right: object,
                          ancestors: List[_InteriorNode]) -> None:
        if not ancestors:
            root = _InteriorNode(self._new_page())
            root.keys = [split_key]
            root.children = [left, right]
            self._root = root
            self._height += 1
            return
        parent = ancestors[-1]
        slot = bisect.bisect_right(parent.keys, split_key)
        parent.keys.insert(slot, split_key)
        parent.children.insert(slot + 1, right)
        if len(parent.children) > self.interior_fanout:
            self._split_interior(parent, ancestors[:-1])

    def _split_interior(self, node: _InteriorNode,
                        ancestors: List[_InteriorNode]) -> None:
        mid = len(node.keys) // 2
        promote = node.keys[mid]
        sibling = _InteriorNode(self._new_page())
        sibling.keys = node.keys[mid + 1:]
        sibling.children = node.children[mid + 1:]
        del node.keys[mid:]
        del node.children[mid + 1:]
        self._insert_in_parent(node, promote, sibling, ancestors)

    # -- scans ---------------------------------------------------------------

    def range_pages(self, start_key: int, count: int) -> List[int]:
        """Index+leaf pages touched by a short range scan."""
        _, path = self.get(start_key)
        pages = list(path)
        node = self._root
        while isinstance(node, _InteriorNode):
            slot = bisect.bisect_right(node.keys, start_key)
            node = node.children[slot]
        leaf: Optional[_LeafNode] = node
        remaining = count
        while leaf is not None and remaining > 0:
            if pages[-1] != leaf.page:
                pages.append(leaf.page)
            remaining -= len(leaf.keys)
            leaf = leaf.next_leaf
        return pages


class MasstreeWorkload(Workload):
    """TailBench-style key-value service over the Masstree index."""

    name = "masstree"
    rob_occupancy = 56.0

    def __init__(self, dataset_pages: int, seed: int = 42,
                 num_keys: Optional[int] = None, zipf_s: float = 1.55,
                 ops_per_job: int = 10, compute_ns: float = 140.0,
                 write_fraction: float = 0.10,
                 scan_fraction: float = 0.05,
                 scan_length: int = 64) -> None:
        super().__init__(dataset_pages, seed)
        self.scan_fraction = scan_fraction
        self.scan_length = scan_length
        if num_keys is None:
            num_keys = min(1 << 16, max(1024, dataset_pages * 2))
        self.num_keys = num_keys
        self.ops_per_job = ops_per_job
        self.compute_ns = compute_ns
        self.write_fraction = write_fraction

        index_budget = max(16, dataset_pages // 8)
        value_budget = dataset_pages - index_budget
        expected_nodes = max(16, 2 * num_keys // LEAF_CAPACITY)
        self.tree = Masstree(SpreadHeap(0, index_budget, expected_nodes))
        value_heap = SpreadHeap(index_budget, value_budget, num_keys)
        build_rng = random.Random(seed)
        for key in range(num_keys):
            self.tree.insert(key, value_heap.allocate().page)
        self._zipf = ZipfianGenerator(num_keys, zipf_s, seed=seed + 1,
                                         permute=False)

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        compute = self.compute_ns
        half = compute * 0.5
        rng_random = self._rng_random
        for _ in range(self.ops_per_job):
            key = self._zipf.sample()
            if rng_random() < self.scan_fraction:
                # Short range scan: after the root-to-leaf descent the
                # leaf chain is walked sequentially (Masstree range
                # queries); sequential leaf pages give spatial locality.
                for page in self.tree.range_pages(key, self.scan_length):
                    yield (half * (0.5 + rng_random()), page, False)
                continue
            is_write = rng_random() < self.write_fraction
            value_page, path = self.tree.get(key)
            if value_page is None:
                raise WorkloadError(f"key {key} missing from index")
            for page in path:
                yield (compute * (0.5 + rng_random()), page, False)
            yield (compute * (0.5 + rng_random()), value_page, is_write)
