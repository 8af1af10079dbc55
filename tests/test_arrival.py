"""Tests for the pluggable arrival processes (repro.workloads.arrival)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    arrival_from_spec,
)

N_GAPS = 20_000


def empirical_mean(process, n=N_GAPS):
    return sum(process.next_gap_ns() for _ in range(n)) / n


class TestPoisson:
    def test_empirical_mean_matches(self):
        process = PoissonArrivals(1_000.0, seed=7)
        assert empirical_mean(process) == pytest.approx(1_000.0, rel=0.05)

    def test_seeded_determinism(self):
        a = PoissonArrivals(500.0, seed=11)
        b = PoissonArrivals(500.0, seed=11)
        assert [a.next_gap_ns() for _ in range(100)] == \
            [b.next_gap_ns() for _ in range(100)]

    def test_rate(self):
        assert PoissonArrivals(2_000.0).rate_per_second == \
            pytest.approx(5e5)


class TestMMPP:
    def make(self, streams=1, seed=3):
        return MMPPArrivals(
            mean_interarrival_ns=1_000.0, burst_interarrival_ns=250.0,
            mean_dwell_ns=90_000.0, burst_dwell_ns=10_000.0,
            seed=seed, streams=streams,
        )

    def test_stationary_rate(self):
        process = self.make()
        # 0.9 of time at 1/1000, 0.1 at 1/250 (per ns) -> 1.3e6 per s.
        assert process.rate_per_second == pytest.approx(1.3e6)

    def test_empirical_mean_matches_stationary_rate(self):
        process = self.make()
        expected_gap = 1e9 / process.rate_per_second
        assert empirical_mean(process, n=50_000) == \
            pytest.approx(expected_gap, rel=0.05)

    def test_transitions_happen_and_dwell_fractions_hold(self):
        process = self.make()
        in_burst = 0.0
        total = 0.0
        for _ in range(50_000):
            gap = process.next_gap_ns()
            total += gap
            if process.state == 1:
                in_burst += gap
        assert process.transitions > 10
        # ~10% of machine time should be spent in the burst state.
        assert in_burst / total == pytest.approx(0.1, abs=0.05)

    def test_seeded_determinism(self):
        a, b = self.make(seed=5), self.make(seed=5)
        assert [a.next_gap_ns() for _ in range(200)] == \
            [b.next_gap_ns() for _ in range(200)]
        assert a.transitions == b.transitions

    def test_streams_slow_dwell_consumption(self):
        # With N streams each handed-out gap only advances machine
        # time by gap/N, so N times more gaps fit per dwell episode.
        solo = self.make(streams=1)
        shared = self.make(streams=4)
        for _ in range(20_000):
            solo.next_gap_ns()
            shared.next_gap_ns()
        assert shared.transitions < solo.transitions

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            MMPPArrivals(0.0, 250.0)
        with pytest.raises(ConfigurationError):
            MMPPArrivals(1_000.0, 250.0, streams=0)


class TestDiurnal:
    def test_empirical_mean_matches(self):
        process = DiurnalArrivals(1_000.0, period_ns=50_000.0,
                                  amplitude=0.5, seed=9)
        assert empirical_mean(process, n=50_000) == \
            pytest.approx(1_000.0, rel=0.05)

    def test_rate_modulation_peak_vs_trough(self):
        process = DiurnalArrivals(1_000.0, period_ns=1_000_000.0,
                                  amplitude=0.5)
        peak = process.rate_at(250_000.0)    # sin = +1
        trough = process.rate_at(750_000.0)  # sin = -1
        assert peak == pytest.approx(1.5e-3)
        assert trough == pytest.approx(0.5e-3)
        assert math.isclose(process.rate_at(0.0), 1e-3)

    def test_seeded_determinism(self):
        a = DiurnalArrivals(800.0, 40_000.0, seed=13)
        b = DiurnalArrivals(800.0, 40_000.0, seed=13)
        assert [a.next_gap_ns() for _ in range(200)] == \
            [b.next_gap_ns() for _ in range(200)]

    def test_rejects_bad_amplitude(self):
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(1_000.0, 50_000.0, amplitude=1.0)


@pytest.mark.parametrize("build", [
    pytest.param(lambda bad: PoissonArrivals(bad), id="poisson-mean"),
    pytest.param(lambda bad: MMPPArrivals(bad, 250.0), id="mmpp-mean"),
    pytest.param(lambda bad: MMPPArrivals(1_000.0, bad), id="mmpp-burst"),
    pytest.param(lambda bad: MMPPArrivals(1_000.0, 250.0, mean_dwell_ns=bad),
                 id="mmpp-dwell"),
    pytest.param(lambda bad: MMPPArrivals(1_000.0, 250.0,
                                          burst_dwell_ns=bad),
                 id="mmpp-burst-dwell"),
    pytest.param(lambda bad: DiurnalArrivals(bad, 50_000.0),
                 id="diurnal-mean"),
    pytest.param(lambda bad: DiurnalArrivals(1_000.0, bad),
                 id="diurnal-period"),
])
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_rejects_non_finite_means_dwells_and_period(build, bad):
    with pytest.raises(ConfigurationError, match="finite and positive"):
        build(bad)


class TestSpecFactory:
    def test_none_is_closed_loop(self):
        assert arrival_from_spec(None) is None

    def test_poisson_round_trip(self):
        built = arrival_from_spec(("poisson", 1_000.0, 7))
        direct = PoissonArrivals(1_000.0, seed=7)
        assert [built.next_gap_ns() for _ in range(50)] == \
            [direct.next_gap_ns() for _ in range(50)]

    def test_mmpp_round_trip(self):
        spec = ("mmpp", 1_000.0, 250.0, 90_000.0, 10_000.0, 3, 2)
        built = arrival_from_spec(spec)
        direct = MMPPArrivals(1_000.0, 250.0, mean_dwell_ns=90_000.0,
                              burst_dwell_ns=10_000.0, seed=3, streams=2)
        assert [built.next_gap_ns() for _ in range(100)] == \
            [direct.next_gap_ns() for _ in range(100)]

    def test_diurnal_round_trip(self):
        spec = ("diurnal", 1_000.0, 50_000.0, 0.4, 5, 2)
        built = arrival_from_spec(spec)
        direct = DiurnalArrivals(1_000.0, 50_000.0, amplitude=0.4,
                                 seed=5, streams=2)
        assert [built.next_gap_ns() for _ in range(100)] == \
            [direct.next_gap_ns() for _ in range(100)]

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            arrival_from_spec(("sawtooth", 1.0))
