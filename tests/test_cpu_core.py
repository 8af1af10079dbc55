"""Tests for the core-side miss-signal cost (the ROB flush penalty)."""

import pytest

from repro.config import CoreConfig
from repro.cpu import flush_penalty_ns


class TestCoreModel:
    def test_flush_penalty_scales_with_occupancy(self):
        config = CoreConfig()
        low = flush_penalty_ns(config, rob_occupancy=16)
        high = flush_penalty_ns(config, rob_occupancy=128)
        assert high == pytest.approx(8 * low)

    def test_flush_penalty_clamped(self):
        config = CoreConfig()
        assert flush_penalty_ns(config, rob_occupancy=-5) == 0.0
        assert flush_penalty_ns(config, rob_occupancy=10_000) == \
            flush_penalty_ns(config, rob_occupancy=config.rob_entries)

    def test_ideal_core_has_zero_flush_penalty(self):
        config = CoreConfig(flush_cycles_per_rob_entry=0.0)
        assert flush_penalty_ns(config, rob_occupancy=128) == 0.0
