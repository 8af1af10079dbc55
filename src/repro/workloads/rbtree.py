"""Red-black tree workload (microbenchmark suite, Sec. V-A).

A red-black tree (insert and search, with the classic CLRS
rebalancing) whose nodes live on pages from a spread heap, so a
lookup's root-to-leaf pointer chase produces the page trace the paper's
RBT microbenchmark stresses: little spatial locality, long dependent
chains.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional

from repro.errors import WorkloadError
from repro.workloads.base import Lookup, Step, Workload
from repro.workloads.pagedheap import SpreadHeap
from repro.workloads.zipf import ZipfianGenerator

RED = "red"
BLACK = "black"


class _Node:
    __slots__ = ("key", "page", "color", "left", "right", "parent")

    def __init__(self, key: int, page: int) -> None:
        self.key = key
        self.page = page
        self.color = RED
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.parent: Optional["_Node"] = None


class RedBlackTree:
    """Classic red-black tree with page-path search."""

    def __init__(self, node_heap: SpreadHeap) -> None:
        self._heap = node_heap
        self.root: Optional[_Node] = None
        self._size = 0
        self._memo: Dict[int, Lookup] = {}

    @property
    def size(self) -> int:
        return self._size

    # -- search -----------------------------------------------------------------

    def search(self, key: int) -> Lookup:
        """(node page or None, page path root->node), memoized per key
        until the next :meth:`insert`."""
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._walk(key)
        return hit

    def _walk(self, key: int) -> Lookup:
        pages: List[int] = []
        node = self.root
        while node is not None:
            pages.append(node.page)
            if key == node.key:
                return node.page, tuple(pages)
            node = node.left if key < node.key else node.right
        return None, tuple(pages)

    # -- rotations -----------------------------------------------------------------

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not None:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is None:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not None:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is None:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    # -- insert ------------------------------------------------------------------

    def insert(self, key: int) -> bool:
        """Insert ``key``; False if it already existed."""
        if self._memo:
            self._memo.clear()
        parent = None
        node = self.root
        while node is not None:
            parent = node
            if key == node.key:
                return False
            node = node.left if key < node.key else node.right
        fresh = _Node(key, self._heap.allocate().page)
        fresh.parent = parent
        if parent is None:
            self.root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self._size += 1
        self._insert_fixup(fresh)
        return True

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent is not None and z.parent.color == RED:
            grandparent = z.parent.parent
            if grandparent is None:
                break
            if z.parent is grandparent.left:
                uncle = grandparent.right
                if uncle is not None and uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grandparent.color = RED
                    z = grandparent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = grandparent.left
                if uncle is not None and uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grandparent.color = RED
                    z = grandparent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self.root.color = BLACK


class RbtWorkload(Workload):
    """Zipfian lookups/updates with pointer chasing (the paper's RBT)."""

    name = "rbtree"
    rob_occupancy = 40.0  # dependent chains keep the window small
    seeded_dataset = True  # the insert order is shuffled by the seed

    def __init__(self, dataset_pages: int, seed: int = 42,
                 num_keys: Optional[int] = None, zipf_s: float = 1.55,
                 ops_per_job: int = 4, compute_ns: float = 120.0,
                 write_fraction: float = 0.05) -> None:
        super().__init__(dataset_pages, seed)
        if num_keys is None:
            num_keys = min(1 << 15, max(1024, dataset_pages))
        self.num_keys = num_keys
        self.ops_per_job = ops_per_job
        self.compute_ns = compute_ns
        self.write_fraction = write_fraction

        self.tree = RedBlackTree(SpreadHeap(0, dataset_pages, num_keys))
        build_rng = random.Random(seed)
        keys = list(range(num_keys))
        build_rng.shuffle(keys)  # randomized insert order balances pages
        for key in keys:
            self.tree.insert(key)
        self._zipf = ZipfianGenerator(num_keys, zipf_s, seed=seed + 1,
                                         permute=False)

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        compute = self.compute_ns
        rng_random = self._rng_random
        for _ in range(self.ops_per_job):
            key = self._zipf.sample()
            node_page, path = self.tree.search(key)
            if node_page is None:
                raise WorkloadError(f"key {key} missing from tree")
            is_write = rng_random() < self.write_fraction
            for page in path[:-1]:
                yield (compute * (0.5 + rng_random()), page, False)
            yield (compute * (0.5 + rng_random()), path[-1], is_write)
