"""Tests for the footprint-cache extension."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DramCacheConfig, FlashConfig
from repro.dramcache import DramCache
from repro.dramcache.footprint import BLOCKS_PER_PAGE, FootprintPredictor
from repro.errors import ConfigurationError
from repro.flash import FlashDevice
from repro.sim import Engine, spawn


class TestFootprintPredictor:
    def test_cold_region_fetches_full_page(self):
        predictor = FootprintPredictor()
        assert predictor.predict_blocks(0) == BLOCKS_PER_PAGE

    def test_learns_small_footprints(self):
        predictor = FootprintPredictor(region_pages=4, safety_blocks=2)
        for _ in range(10):
            predictor.record_eviction(0, accesses_while_resident=3,
                                      fetched_blocks=BLOCKS_PER_PAGE)
        predicted = predictor.predict_blocks(1)  # same region
        assert predicted == 3 + 2

    def test_regions_are_independent(self):
        predictor = FootprintPredictor(region_pages=4)
        predictor.record_eviction(0, 2, BLOCKS_PER_PAGE)
        assert predictor.predict_blocks(5) == BLOCKS_PER_PAGE  # region 1 cold

    def test_underfetch_detection(self):
        predictor = FootprintPredictor()
        predictor.record_eviction(0, accesses_while_resident=10,
                                  fetched_blocks=4)
        assert (predictor.trainings, predictor.underfetches) == (1, 1)
        assert predictor.underfetch_rate() == 1.0

    def test_footprint_capped_at_page(self):
        predictor = FootprintPredictor(region_pages=1, safety_blocks=0)
        predictor.record_eviction(0, accesses_while_resident=10_000,
                                  fetched_blocks=BLOCKS_PER_PAGE)
        assert predictor.predict_blocks(0) == BLOCKS_PER_PAGE

    def test_prediction_at_least_one_block(self):
        predictor = FootprintPredictor(region_pages=1, safety_blocks=0)
        for _ in range(20):
            predictor.record_eviction(0, 0, 8)
        assert predictor.predict_blocks(0) >= 1

    def test_predict_bytes(self):
        predictor = FootprintPredictor(region_pages=1, safety_blocks=0)
        for _ in range(20):
            predictor.record_eviction(0, 4, 8)
        assert predictor.predict_bytes(0) == predictor.predict_blocks(0) * 64

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            FootprintPredictor(region_pages=0)
        with pytest.raises(ConfigurationError):
            FootprintPredictor(ewma_alpha=0.0)
        with pytest.raises(ConfigurationError):
            FootprintPredictor(safety_blocks=1000)

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_predictions_always_in_range(self, footprints):
        predictor = FootprintPredictor(region_pages=2, safety_blocks=3)
        for used in footprints:
            predictor.record_eviction(0, used, predictor.predict_blocks(0))
            predicted = predictor.predict_blocks(0)
            assert 1 <= predicted <= BLOCKS_PER_PAGE


class TestFootprintIntegration:
    def make_cache(self, footprint: bool):
        engine = Engine()
        flash = FlashDevice(
            engine,
            FlashConfig(channels=2, dies_per_channel=1, planes_per_die=2,
                        pages_per_block=16, overprovisioning=0.5),
            1024,
        )
        config = DramCacheConfig(
            associativity=4,
            footprint_enabled=footprint,
            footprint_region_pages=8,
            footprint_safety_blocks=2,
        )
        cache = DramCache(engine, config, cache_pages=16, flash=flash)
        return engine, cache, flash

    def _churn(self, engine, cache, pages):
        def driver():
            for page in pages:
                result = cache.access(page)
                if not result.hit:
                    yield result.completion

        spawn(engine, driver())
        engine.run()

    def test_footprint_reduces_flash_bytes(self):
        # Sparse pattern: each page touched once per residency.
        pattern = [page for _ in range(6) for page in range(64)]
        engine_a, cache_a, flash_a = self.make_cache(footprint=False)
        self._churn(engine_a, cache_a, pattern)
        engine_b, cache_b, flash_b = self.make_cache(footprint=True)
        self._churn(engine_b, cache_b, pattern)
        assert flash_b.pcie.bytes_transferred < flash_a.pcie.bytes_transferred
        assert cache_b.backside.footprint.trainings > 0

    def test_footprint_disabled_by_default(self):
        engine, cache, flash = self.make_cache(footprint=False)
        assert cache.backside.footprint is None

    def test_partial_read_size_validated(self):
        engine, cache, flash = self.make_cache(footprint=False)
        with pytest.raises(ConfigurationError):
            flash.read(0, num_bytes=0)
        with pytest.raises(ConfigurationError):
            flash.read(0, num_bytes=10_000)
