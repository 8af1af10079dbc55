"""Unit tests for the TLB-shootdown latency model."""

import pytest

from repro.config import OsConfig
from repro.errors import ConfigurationError
from repro.vm import TlbShootdownModel


class TestShootdown:
    def test_latency_grows_with_cores(self):
        config = OsConfig()
        small = TlbShootdownModel(config, num_cores=4).latency_ns()
        large = TlbShootdownModel(config, num_cores=64).latency_ns()
        assert large > small

    def test_64_core_shootdown_is_tens_of_microseconds(self):
        # Sec. II-C: "incurring over 10 us in latency" at high core counts.
        model = TlbShootdownModel(OsConfig(), num_cores=64)
        assert model.latency_ns() > 10_000.0

    def test_batching_amortizes(self):
        model = TlbShootdownModel(OsConfig(), num_cores=16)
        one_by_one = 4 * model.latency_ns(1)
        batched = model.latency_ns(4)
        assert batched < one_by_one

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            TlbShootdownModel(OsConfig(), num_cores=0)
        model = TlbShootdownModel(OsConfig(), num_cores=2)
        with pytest.raises(ConfigurationError):
            model.latency_ns(0)
