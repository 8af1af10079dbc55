"""Tests for the experiment harness: every figure/table regenerates
with the paper's qualitative shape at quick scale."""

import math

import pytest

from repro.harness import (
    EXPERIMENTS,
    ExperimentResult,
    run_experiment,
)
from repro.harness.common import resolve_scale
from repro.harness.fig1 import lru_miss_ratio
from repro.harness.fig3 import max_load_within_slo


class TestInfrastructure:
    def test_registry_covers_every_artifact(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig2", "fig3", "fig9", "fig10", "table1", "table2",
            "gc_overheads",
        }

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig42")

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            resolve_scale("huge")

    def test_result_row_validation(self):
        result = ExperimentResult("x", "t", columns=["a", "b"])
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_format_table_renders(self):
        result = ExperimentResult("x", "Title", columns=["a", "b"])
        result.add_row(1, 2.5)
        text = result.format_table()
        assert "Title" in text
        assert "2.500" in text


class TestFig1:
    def test_lru_simulator(self):
        trace = [1, 2, 1, 3, 1, 2]
        assert lru_miss_ratio(trace, capacity_pages=2) == pytest.approx(4 / 6)
        assert lru_miss_ratio([], 4) == 0.0

    def test_miss_rate_decreases_with_capacity(self):
        result = run_experiment("fig1", scale="quick",
                                steps_per_workload=20_000)
        misses = result.column("miss_ratio")
        assert all(b <= a * 1.05 for a, b in zip(misses, misses[1:]))

    def test_knee_near_3_percent(self):
        result = run_experiment("fig1", scale="quick",
                                steps_per_workload=20_000)
        caps = result.column("dram_capacity_pct")
        misses = dict(zip(caps, result.column("miss_ratio")))
        # Going 1% -> 3% buys much more than 3% -> 10%.
        assert misses[1.0] - misses[3.0] > (misses[3.0] - misses[10.0])

    def test_bandwidth_order_of_magnitude(self):
        result = run_experiment("fig1", scale="quick",
                                steps_per_workload=20_000)
        caps = result.column("dram_capacity_pct")
        bw = dict(zip(caps, result.column("flash_bw_gbps_64cores")))
        # Paper: ~60 GB/s at the 3% knee for 64 cores.
        assert 20.0 < bw[3.0] < 150.0


class TestFig2:
    def test_paging_never_beats_ideal(self):
        result = run_experiment("fig2")
        for row in result.rows:
            assert row[2] <= row[1]

    def test_single_core_loses_about_half(self):
        result = run_experiment("fig2")
        first = result.rows[0]
        assert first[2] == pytest.approx(0.5, abs=0.05)

    def test_collapse_at_64_cores(self):
        result = run_experiment("fig2")
        last = result.rows[-1]
        assert last[0] == 64
        assert last[2] < 0.05  # shootdowns destroy scaling


class TestFig3:
    def test_curves_are_monotone_in_load(self):
        result = run_experiment("fig3")
        for config in ("dram-only", "astriflash"):
            series = result.column(config)
            finite = [v for v in series if math.isfinite(v)]
            assert finite == sorted(finite)

    def test_flash_sync_saturates_early(self):
        result = run_experiment("fig3")
        loads = result.column("load")
        sync = dict(zip(loads, result.column("flash-sync")))
        assert math.isinf(sync[0.3])
        assert math.isfinite(sync[0.1])

    def test_os_swap_saturates_near_half(self):
        result = run_experiment("fig3")
        loads = result.column("load")
        swap = dict(zip(loads, result.column("os-swap")))
        assert math.isfinite(swap[0.4])
        assert math.isinf(swap[0.7])

    def test_astriflash_tracks_dram_at_high_load(self):
        result = run_experiment("fig3")
        loads = result.column("load")
        dram = dict(zip(loads, result.column("dram-only")))
        astri = dict(zip(loads, result.column("astriflash")))
        # Within ~20% at 90% load (the Sec. III-A observation).
        assert astri[0.9] / dram[0.9] < 1.3

    def test_slo_40x_supports_high_load(self):
        sustained = max_load_within_slo(slo_factor=40.0)
        # Paper Sec. III-A: within ~20% of DRAM-only under a 40x SLO.
        assert sustained["astriflash"] >= sustained["dram-only"] - 0.25
        # Flash-Sync only survives at negligible load.
        assert sustained["flash-sync"] <= 0.10
        assert sustained["os-swap"] <= 0.55


class TestTable1:
    def test_lists_paper_parameters(self):
        result = run_experiment("table1")
        text = result.format_table()
        assert "Cortex-A76" in text
        assert "50 us" in text
        assert "100 ns switch" in text
        assert "256 GiB" in text
        assert "2.0 KiB" in text


class TestGcOverheads:
    def test_blocking_scales_inversely_with_capacity(self):
        result = run_experiment("gc_overheads")
        rows = {row[0]: row[1] for row in result.rows}
        assert rows[256] == pytest.approx(0.04)
        assert rows[1024] == pytest.approx(0.01)
        assert rows[1024] < 0.01 + 1e-9  # paper: <1% at 1 TiB

    def test_analytic_rows_simulate_nothing(self):
        # The rows come from the analytic model alone: no device is
        # simulated, and no measured figure is printed beside them.
        from repro.sim.engine import total_events_executed

        before = total_events_executed()
        result = run_experiment("gc_overheads")
        assert total_events_executed() == before
        assert "Measured" not in result.notes


@pytest.mark.slow
class TestSimulationExperiments:
    """The heavier simulation-backed artifacts (seconds each)."""

    def test_fig9_shape(self):
        result = run_experiment("fig9", scale="quick")
        geomean = result.rows[-1]
        assert geomean[0] == "geomean"
        columns = result.columns
        values = dict(zip(columns[1:], geomean[1:]))
        assert values["astriflash"] > 0.75
        assert values["flash-sync"] < values["os-swap"] < values["astriflash"]

    def test_table2_shape(self):
        result = run_experiment("table2", scale="quick")
        values = {row[0]: row[1] for row in result.rows}
        assert values["flash-sync"] == pytest.approx(1.0)
        assert values["astriflash"] < 1.6
        assert values["astriflash-nops"] > 2.0
        assert values["astriflash-nodp"] > 1.2

    def test_fig10_shape(self):
        result = run_experiment("fig10", scale="quick",
                                load_points=(0.3, 0.9))
        rows = {row[0]: row for row in result.rows}
        # AstriFlash p99 exceeds DRAM-only at low load (flash tail).
        assert rows[0.3][4] > rows[0.3][2]
        # Both sustain high load within a few percent.
        assert rows[0.9][3] > 0.8
