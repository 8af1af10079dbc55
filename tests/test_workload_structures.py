"""Tests for Zipf, heaps, and the workload data structures."""

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


class TestZipfianGenerator:
    def test_samples_in_range(self):
        zipf = ZipfianGenerator(100, 1.2, seed=1)
        samples = zipf.sample_array(10_000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_skew_concentrates_mass(self):
        zipf = ZipfianGenerator(10_000, 1.3, seed=1, permute=False)
        samples = zipf.sample_array(50_000)
        top_3pct = (samples < 300).mean()
        assert top_3pct > 0.7  # most accesses hit the hot 3%

    def test_coverage_monotone(self):
        zipf = ZipfianGenerator(10_000, 1.3)
        assert zipf.coverage(0.01) < zipf.coverage(0.1) < zipf.coverage(1.0)
        assert zipf.coverage(1.0) == pytest.approx(1.0)

    def test_coverage_matches_empirical(self):
        zipf = ZipfianGenerator(1000, 1.3, seed=3, permute=False)
        analytic = zipf.coverage(0.03)
        samples = zipf.sample_array(100_000)
        empirical = (samples < 30).mean()
        assert abs(analytic - empirical) < 0.02

    def test_permutation_spreads_hot_items(self):
        zipf = ZipfianGenerator(10_000, 1.3, seed=1, permute=True)
        samples = zipf.sample_array(10_000)
        # The hottest item is no longer index 0 with high probability.
        hottest = zipf.rank_of(int(samples[0]))
        assert 0 <= hottest < 10_000

    def test_rank_of_inverts_permutation(self):
        zipf = ZipfianGenerator(100, 1.0, seed=5, permute=True)
        item = zipf.sample()
        rank = zipf.rank_of(item)
        assert zipf._permutation[rank] == item

    def test_zero_skew_is_uniform(self):
        zipf = ZipfianGenerator(100, 0.0, seed=1, permute=False)
        samples = zipf.sample_array(100_000)
        assert abs((samples < 50).mean() - 0.5) < 0.02

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            ZipfianGenerator(0, 1.0)
        with pytest.raises(ConfigurationError):
            ZipfianGenerator(10, -1.0)
        with pytest.raises(ConfigurationError):
            ZipfianGenerator(10, 1.0).coverage(0.0)


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
        missing, _ = tree.search(1000)
        assert missing is None

    def test_duplicate_insert_rejected(self):
        tree = self.make_tree([1])
        assert not tree.insert(1)
        assert tree.size == 1

    def test_invariants_after_sequential_inserts(self):
        tree = self.make_tree(range(512))
        tree.check_invariants()
        # Balanced: depth is O(log n), not O(n).
        assert tree.depth_of(511) <= 2 * 10  # 2*log2(512)=18

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_random_inserts_preserve_invariants(self, inserts):
        tree = RedBlackTree(SpreadHeap(0, 1024, 256))
        present = set()
        for key in inserts:
            inserted = tree.insert(key)
            assert inserted == (key not in present)
            present.add(key)
            tree.check_invariants()
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

    def test_missing_key(self):
        tree = self.make_tree(10)
        value, path = tree.get(999)
        assert value is None
        assert path  # the traversal still touched pages

    def test_update_in_place(self):
        tree = self.make_tree(10)
        tree.insert(3, value_page=42)
        assert tree.get(3)[0] == 42
        assert tree.size == 10  # no new key

    def test_splits_grow_height_logarithmically(self):
        tree = self.make_tree(4096)
        assert tree.height <= 5
        tree.check_invariants()

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
            tree.check_invariants()
        for key in keys:
            assert tree.get(key)[0] == key * 2


class TestHashIndex:
    def test_insert_lookup(self):
        index = HashIndex(64, base_page=0, page_budget=64,
                          expected_entries=100)
        index.insert(5)
        page, path = index.lookup(5)
        assert page is not None
        assert path[0] < 64  # bucket page first
        assert index.lookup(6)[0] is None

    def test_duplicate_insert_idempotent(self):
        index = HashIndex(64, base_page=0, page_budget=64,
                          expected_entries=100)
        index.insert(5)
        index.insert(5)
        assert index.size == 1

    def test_chains_grow_with_load(self):
        index = HashIndex(16, base_page=0, page_budget=64,
                          expected_entries=64)
        for key in range(64):
            index.insert(key)
        assert index.average_chain_length() == pytest.approx(4.0)

    def test_budget_must_fit_buckets(self):
        with pytest.raises(WorkloadError):
            HashIndex(10_000, base_page=0, page_budget=8,
                      expected_entries=10)
