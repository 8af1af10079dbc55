"""Tests for Zipf, heaps, and the workload data structures."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.workloads import (
    HashIndex,
    Masstree,
    RedBlackTree,
    SpreadHeap,
    ZipfianGenerator,
)
from repro.workloads.hashtable import BUCKETS_PER_PAGE
from repro.workloads.masstree import _LeafNode
from repro.workloads.rbtree import BLACK, RED


def draws(zipf, count):
    return np.array([zipf.sample() for _ in range(count)])


def rbtree_check_invariants(tree):
    """Validate BST order, red-red, and black-height; returns the
    black height.  Raises AssertionError on violation."""
    if tree.root is not None:
        assert tree.root.color == BLACK, "root must be black"

    def walk(node, low, high):
        if node is None:
            return 1
        assert low is None or node.key > low, "BST order violated"
        assert high is None or node.key < high, "BST order violated"
        if node.color == RED:
            for child in (node.left, node.right):
                assert child is None or child.color == BLACK, \
                    "red node with red child"
        left_height = walk(node.left, low, node.key)
        right_height = walk(node.right, node.key, high)
        assert left_height == right_height, "black-height mismatch"
        return left_height + (1 if node.color == BLACK else 0)

    return walk(tree.root, None, None)


def masstree_check_invariants(tree):
    """Validate key ordering and fanout bounds."""
    def check(node, low, high):
        if isinstance(node, _LeafNode):
            assert node.keys == sorted(node.keys)
            for key in node.keys:
                assert (low is None or key >= low)
                assert (high is None or key < high)
            assert len(node.keys) <= tree.leaf_capacity
            return
        assert len(node.children) == len(node.keys) + 1
        assert len(node.children) <= tree.interior_fanout
        for i, child in enumerate(node.children):
            child_low = node.keys[i - 1] if i > 0 else low
            child_high = node.keys[i] if i < len(node.keys) else high
            check(child, child_low, child_high)

    check(tree._root, None, None)


class TestZipfianGenerator:
    def test_samples_in_range(self):
        zipf = ZipfianGenerator(100, 1.2, seed=1)
        samples = draws(zipf, 10_000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_skew_concentrates_mass(self):
        zipf = ZipfianGenerator(10_000, 1.3, seed=1, permute=False)
        samples = draws(zipf, 50_000)
        top_3pct = (samples < 300).mean()
        assert top_3pct > 0.7  # most accesses hit the hot 3%

    def test_coverage_monotone(self):
        # Unpermuted, the hottest fraction of items is the lowest indices.
        zipf = ZipfianGenerator(10_000, 1.3, seed=1, permute=False)
        samples = draws(zipf, 50_000)
        shares = [(samples < top).mean() for top in (100, 1000, 10_000)]
        assert shares[0] < shares[1] < shares[2] == 1.0

    def test_coverage_matches_empirical(self):
        # The hottest 3% of items carry the analytic Zipf mass.
        zipf = ZipfianGenerator(1000, 1.3, seed=3, permute=False)
        weights = 1.0 / np.arange(1, 1001, dtype=np.float64) ** 1.3
        analytic = weights[:30].sum() / weights.sum()
        samples = draws(zipf, 100_000)
        empirical = (samples < 30).mean()
        assert abs(analytic - empirical) < 0.02

    def test_permutation_spreads_hot_items(self):
        zipf = ZipfianGenerator(10_000, 1.3, seed=1, permute=True)
        samples = draws(zipf, 10_000)
        # The most-drawn item is the one the permutation gives rank 0,
        # not index 0.
        hottest, _ = Counter(samples.tolist()).most_common(1)[0]
        assert hottest == zipf._permutation[0] != 0

    def test_zero_skew_is_uniform(self):
        zipf = ZipfianGenerator(100, 0.0, seed=1, permute=False)
        samples = draws(zipf, 100_000)
        assert abs((samples < 50).mean() - 0.5) < 0.02

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            ZipfianGenerator(0, 1.0)
        with pytest.raises(ConfigurationError):
            ZipfianGenerator(10, -1.0)


class TestHeaps:
    def test_spread_heap_covers_budget(self):
        heap = SpreadHeap(base_page=100, page_budget=10, expected_objects=20)
        pages = [heap.allocate().page for _ in range(20)]
        assert min(pages) == 100
        assert max(pages) == 109
        assert len(set(pages)) == 10

    def test_spread_heap_overflow_clamps(self):
        heap = SpreadHeap(base_page=0, page_budget=4, expected_objects=4)
        pages = [heap.allocate().page for _ in range(8)]
        assert max(pages) == 3


class TestRedBlackTree:
    def make_tree(self, keys):
        tree = RedBlackTree(SpreadHeap(0, 1024, max(len(keys), 1)))
        for key in keys:
            tree.insert(key)
        return tree

    def test_insert_and_search(self):
        tree = self.make_tree(range(100))
        page, path = tree.search(42)
        assert page is not None
        assert len(path) >= 1
        assert isinstance(path, tuple)
        missing, _ = tree.search(1000)
        assert missing is None

    def test_insert_after_missed_search_is_found(self):
        tree = self.make_tree(range(100))
        assert tree.search(1000)[0] is None  # memoized as absent
        tree.insert(1000)
        page, path = tree.search(1000)
        assert page is not None and path[-1] == page

    def test_duplicate_insert_rejected(self):
        tree = self.make_tree([1])
        assert not tree.insert(1)
        assert tree.size == 1

    def test_invariants_after_sequential_inserts(self):
        tree = self.make_tree(range(512))
        rbtree_check_invariants(tree)
        # Balanced: depth is O(log n), not O(n).
        assert len(tree.search(511)[1]) <= 2 * 10  # 2*log2(512)=18

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_random_inserts_preserve_invariants(self, inserts):
        tree = RedBlackTree(SpreadHeap(0, 1024, 256))
        present = set()
        for key in inserts:
            inserted = tree.insert(key)
            assert inserted == (key not in present)
            present.add(key)
            rbtree_check_invariants(tree)
        assert tree.size == len(present)
        for key in present:
            assert tree.search(key)[0] is not None


class TestMasstree:
    def make_tree(self, num_keys):
        tree = Masstree(SpreadHeap(0, 1024, max(num_keys // 8, 16)))
        for key in range(num_keys):
            tree.insert(key, value_page=5000 + key)
        return tree

    def test_get_returns_value_and_path(self):
        tree = self.make_tree(500)
        value, path = tree.get(123)
        assert value == 5123
        assert len(path) == tree.height
        assert isinstance(path, tuple)
        assert tree.get(123) is tree.get(123)  # memoized per key

    def test_missing_key(self):
        tree = self.make_tree(10)
        value, path = tree.get(999)
        assert value is None
        assert path  # the traversal still touched pages

    def test_update_in_place(self):
        tree = self.make_tree(10)
        assert tree.get(3)[0] == 5003  # memoized before the update
        tree.insert(3, value_page=42)
        assert tree.get(3)[0] == 42
        assert tree.size == 10  # no new key

    def test_splits_grow_height_logarithmically(self):
        tree = self.make_tree(4096)
        assert tree.height <= 5
        masstree_check_invariants(tree)

    def test_range_pages(self):
        tree = self.make_tree(500)
        pages = tree.range_pages(100, count=64)
        assert len(pages) >= tree.height

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300,
                    unique=True))
    @settings(max_examples=40, deadline=None)
    def test_random_inserts_preserve_order_invariants(self, keys):
        tree = Masstree(SpreadHeap(0, 256, 64), leaf_capacity=4,
                        interior_fanout=4)
        for key in keys:
            tree.insert(key, value_page=key * 2)
            masstree_check_invariants(tree)
        for key in keys:
            assert tree.get(key)[0] == key * 2


class TestHashIndex:
    def test_insert_lookup(self):
        index = HashIndex(64, base_page=0, page_budget=64, keys=[5])
        page, path = index.lookup(5)
        assert page is not None
        assert path[0] < 64  # bucket page first
        assert isinstance(path, tuple)
        assert index.lookup(6)[0] is None

    def test_chains_grow_with_load(self):
        index = HashIndex(16, base_page=0, page_budget=64, keys=range(64))
        assert index.size / index.num_buckets == pytest.approx(4.0)
        # Some bucket holds at least four entries, so finding its
        # oldest key walks the bucket page plus four entries.
        assert max(len(index.lookup(key)[1]) for key in range(64)) >= 5

    def test_budget_must_fit_buckets(self):
        with pytest.raises(WorkloadError):
            HashIndex(10_000, base_page=0, page_budget=8, keys=range(10))

    def test_keys_overflowing_int64_buckets_rejected(self):
        for key in (2 ** 40, -(2 ** 40)):
            with pytest.raises(WorkloadError):
                HashIndex(64, base_page=0, page_budget=64, keys=[1, key])

    @given(st.lists(st.integers(-2 ** 31, 2 ** 31), min_size=1,
                    max_size=200, unique=True),
           st.integers(1, 1500),
           st.lists(st.integers(-2 ** 31, 2 ** 31), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_lookup_matches_per_bucket_chains(self, keys, num_buckets,
                                              absent):
        """Every lookup equals a newest-first walk of per-bucket lists
        of ``(key, entry page)`` in insertion order."""
        index = HashIndex(num_buckets, base_page=3, page_budget=64,
                          keys=keys)
        bucket_pages = -(-num_buckets // BUCKETS_PER_PAGE)
        heap = SpreadHeap(3 + bucket_pages, 64 - bucket_pages, len(keys))
        chains = [[] for _ in range(num_buckets)]
        for key in keys:
            chains[key * 2654435761 % num_buckets].append(
                (key, heap.allocate().page))

        def walk(key):
            bucket = key * 2654435761 % num_buckets
            pages = [3 + bucket // BUCKETS_PER_PAGE]
            for entry_key, entry_page in reversed(chains[bucket]):
                pages.append(entry_page)
                if entry_key == key:
                    return entry_page, tuple(pages)
            return None, tuple(pages)

        for key in keys + [key for key in absent if key not in keys]:
            assert index.lookup(key) == walk(key)
