"""Tests for the analytic queueing, bandwidth, and cost models."""

import math
import random

import pytest

from repro.analytic import (
    OverlapModel,
    astriflash_cost,
    cost_reduction_factor,
    dram_only_cost,
    PCIE_GEN5_BANDWIDTH_GBPS,
    erlang_c,
    flash_bandwidth_per_core_gbps,
    flash_bandwidth_total_gbps,
    mm1_response_percentile,
    mmk_response_percentile,
    mmk_response_survival,
    paper_figure3_models,
)
from repro.errors import ConfigurationError


class TestErlangC:
    def test_zero_load(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_single_server_equals_utilization(self):
        # For M/M/1, P(wait) = rho.
        assert erlang_c(1, 0.5) == pytest.approx(0.5)

    def test_monotone_in_load(self):
        assert erlang_c(4, 1.0) < erlang_c(4, 3.0) < erlang_c(4, 3.9)

    def test_unstable_raises(self):
        with pytest.raises(ConfigurationError):
            erlang_c(2, 2.0)


class TestMm1Percentile:
    def test_closed_form(self):
        lam, mu = 0.5, 1.0
        p99 = mm1_response_percentile(0.99, lam, mu)
        assert p99 == pytest.approx(-math.log(0.01) / (mu - lam))

    def test_unstable_raises(self):
        with pytest.raises(ConfigurationError):
            mm1_response_percentile(0.99, 1.0, 1.0)


class TestMmkPercentile:
    def test_survival_is_monotone(self):
        values = [mmk_response_survival(t, 0.5, 0.2, 6)
                  for t in (0.0, 1.0, 5.0, 20.0)]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(1.0)

    def test_percentile_inverts_survival(self):
        lam, mu, k = 0.5, 0.2, 6
        p99 = mmk_response_percentile(0.99, lam, mu, k)
        assert mmk_response_survival(p99, lam, mu, k) == \
            pytest.approx(0.01, abs=1e-6)

    def test_k1_matches_mm1(self):
        lam, mu = 0.3, 1.0
        assert mmk_response_percentile(0.9, lam, mu, 1) == \
            pytest.approx(mm1_response_percentile(0.9, lam, mu), rel=1e-6)

    def test_against_monte_carlo(self):
        # Validate the closed-form M/M/k response survival by simulation.
        rng = random.Random(7)
        lam, mu, k = 0.04, 0.01, 6
        # Discrete-event M/M/k via event list.
        arrivals = []
        t = 0.0
        for _ in range(40_000):
            t += rng.expovariate(lam)
            arrivals.append(t)
        free_at = [0.0] * k
        responses = []
        for arrival in arrivals:
            server = min(range(k), key=lambda i: free_at[i])
            start = max(arrival, free_at[server])
            service = rng.expovariate(mu)
            free_at[server] = start + service
            responses.append(free_at[server] - arrival)
        responses.sort()
        empirical_p90 = responses[int(0.90 * len(responses))]
        analytic_p90 = mmk_response_percentile(0.90, lam, mu, k)
        assert empirical_p90 == pytest.approx(analytic_p90, rel=0.08)


class TestOverlapModels:
    def test_paper_throughput_ordering(self):
        models = {m.name: m for m in paper_figure3_models()}
        # Flash-Sync loses >80% of throughput (Sec. III-A).
        ratio_sync = (models["flash-sync"].max_throughput_per_second
                      / models["dram-only"].max_throughput_per_second)
        assert ratio_sync < 0.2
        # OS-Swap loses ~50%.
        ratio_swap = (models["os-swap"].max_throughput_per_second
                      / models["dram-only"].max_throughput_per_second)
        assert 0.4 < ratio_swap < 0.6
        # AstriFlash approaches DRAM-only.
        ratio_astri = (models["astriflash"].max_throughput_per_second
                       / models["dram-only"].max_throughput_per_second)
        assert ratio_astri > 0.95

    def test_astriflash_is_multiserver(self):
        models = {m.name: m for m in paper_figure3_models()}
        assert models["astriflash"].servers >= 5
        assert models["flash-sync"].servers == 1
        assert models["dram-only"].servers == 1

    def test_slo_40x_absorbs_flash(self):
        # Paper Sec. III-A: with an SLO of 40x the average service time,
        # AstriFlash performs within ~20% of DRAM-only.
        models = {m.name: m for m in paper_figure3_models()}
        dram, astri = models["dram-only"], models["astriflash"]
        slo_ns = 40 * dram.work_ns

        def max_load_under_slo(model):
            for load in [x / 100 for x in range(99, 0, -1)]:
                lam = load * dram.max_throughput_per_second
                if lam >= 0.999 * model.max_throughput_per_second * \
                        model.servers / model.servers:
                    continue
                try:
                    if model.percentile_ns(0.99, lam) <= slo_ns:
                        return load
                except ConfigurationError:
                    continue
            return 0.0

        dram_load = max_load_under_slo(dram)
        astri_load = max_load_under_slo(astri)
        assert astri_load >= dram_load - 0.25

    def test_latency_curve_shape(self):
        model = paper_figure3_models()[1]  # astriflash
        latencies = [
            model.percentile_ns(0.99, load * model.max_throughput_per_second)
            for load in (0.3, 0.6, 0.9)
        ]
        assert latencies == sorted(latencies)

    def test_invalid_load_points_raise(self):
        model = paper_figure3_models()[0]
        with pytest.raises(ConfigurationError):
            model.percentile_ns(0.99, model.max_throughput_per_second)


class TestBandwidth:
    def test_paper_numbers(self):
        # Sec. II-A: ~3% miss rate needs ~60 GB/s for 64 cores.
        # 0.5 GB/s / 64 B * 0.03 * 4096 B ~= 0.96 GB/s per core.
        per_core = flash_bandwidth_per_core_gbps(0.03)
        assert per_core == pytest.approx(0.96, rel=0.01)
        total = flash_bandwidth_total_gbps(0.03, 64)
        assert 55.0 < total < 65.0

    def test_fits_in_pcie(self):
        assert flash_bandwidth_total_gbps(0.03, 64) \
            <= PCIE_GEN5_BANDWIDTH_GBPS
        assert flash_bandwidth_total_gbps(0.10, 64) \
            > PCIE_GEN5_BANDWIDTH_GBPS

    def test_scales_linearly_with_miss_rate(self):
        assert flash_bandwidth_per_core_gbps(0.06) == \
            pytest.approx(2 * flash_bandwidth_per_core_gbps(0.03))

    def test_invalid_inputs_raise(self):
        with pytest.raises(ConfigurationError):
            flash_bandwidth_per_core_gbps(1.5)
        with pytest.raises(ConfigurationError):
            flash_bandwidth_total_gbps(0.03, 0)


class TestCostModel:
    def test_20x_claim(self):
        factor = cost_reduction_factor()
        assert 19.0 < factor < 21.0

    def test_cost_components(self):
        dataset = 1024.0
        full = dram_only_cost(dataset)
        hybrid = astriflash_cost(dataset)
        assert hybrid < full
        assert hybrid == pytest.approx(
            dataset * 0.03 * 4.0 + dataset * 4.0 / 50.0
        )

    def test_invalid_inputs_raise(self):
        with pytest.raises(ConfigurationError):
            dram_only_cost(0.0)
        with pytest.raises(ConfigurationError):
            astriflash_cost(100.0, dram_fraction=0.0)


class TestAsoSilicon:
    def test_paper_numbers(self):
        # Sec. IV-C4: 32-entry SB x 4 regs = 128 extra registers (1 KiB),
        # plus 1 KiB of map tables = 2 KiB total, ~0.001 mm^2, ~0.1%
        # of a 1.3 mm^2 Cortex-A76.
        from repro.analytic import aso_silicon_estimate
        from repro.config import CoreConfig

        estimate = aso_silicon_estimate(CoreConfig())
        assert estimate.extra_registers == 128
        assert estimate.register_file_bytes == 1024
        assert estimate.map_table_bytes == 1024
        assert estimate.total_bytes == 2048
        assert estimate.area_mm2 == pytest.approx(0.001, rel=0.05)
        assert estimate.fraction_of_core == pytest.approx(0.00075, rel=0.1)
        assert "2.0 KiB" in estimate.describe()

    def test_scales_with_store_buffer(self):
        from repro.analytic import aso_silicon_estimate
        from repro.config import CoreConfig

        small = aso_silicon_estimate(CoreConfig(store_buffer_entries=16))
        large = aso_silicon_estimate(CoreConfig(store_buffer_entries=64))
        assert large.total_bytes == 4 * small.total_bytes

    def test_invalid_area_raises(self):
        from repro.analytic import aso_silicon_estimate
        from repro.config import CoreConfig
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            aso_silicon_estimate(CoreConfig(), core_area_mm2=0.0)
