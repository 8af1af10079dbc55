"""Tests for repro.loadgen: knee solver, censoring, sweeps, JSON."""

import dataclasses
import json
import math
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.config import make_config
from repro.core import Runner
from repro.errors import ConfigurationError, ReproError
from repro.harness.common import HarnessScale
from repro.jsonutil import dumps, json_safe
from repro.harness.sweep import SweepResult
from repro.loadgen.sweep import (
    ABOVE_RANGE,
    BELOW_RANGE,
    BRACKETED,
    DEFAULT_QPS_SWEEP,
    GRID,
    LOADGEN,
    _knee,
    _read,
    parse_qps_sweep,
    run_loadgen,
    solve_knee,
)
from repro.metrics import LEDGER_SCHEMA_VERSION, read_ledger, \
    record_from_file, write_record
from repro.units import US
from repro.workloads import ClosedLoop, PoissonArrivals, make_workload

# Small enough that one open-loop run takes a fraction of a second.
TINY = HarnessScale(
    name="tiny", dataset_pages=2048, num_cores=1, warmup_us=100.0,
    measurement_us=600.0, zipf_s=1.8, workloads=("arrayswap",),
)


# ------------------------------------------------------------ knee solver --


def synthetic_p99(qps):
    """Monotone queueing-flavored curve: explodes approaching 1000."""
    return 50_000.0 / max(1e-9, 1.0 - qps / 1000.0)


class TestSolveKnee:
    def test_bracketed_on_monotone_curve(self):
        slo = synthetic_p99(600.0)  # knee sits exactly at 600 qps
        solution = solve_knee(synthetic_p99, 100.0, 990.0, slo)
        assert solution.status == BRACKETED
        assert solution.sustained_qps == pytest.approx(600.0, rel=0.03)
        # The answer is always a measured-good load, never a guess.
        measured = {e["qps"]: e["meets_slo"] for e in solution.evaluations}
        assert measured[solution.sustained_qps] is True

    def test_below_range(self):
        solution = solve_knee(synthetic_p99, 900.0, 990.0,
                              slo_ns=synthetic_p99(100.0))
        assert solution.status == BELOW_RANGE
        assert solution.sustained_qps is None

    def test_above_range(self):
        solution = solve_knee(synthetic_p99, 100.0, 500.0,
                              slo_ns=synthetic_p99(900.0))
        assert solution.status == ABOVE_RANGE
        assert solution.sustained_qps == 500.0

    def test_censored_measurement_counts_as_violation(self):
        def censored_above_400(qps):
            return None if qps > 400.0 else synthetic_p99(qps)
        solution = solve_knee(censored_above_400, 100.0, 990.0,
                              slo_ns=synthetic_p99(800.0))
        assert solution.status == BRACKETED
        assert solution.sustained_qps <= 400.0 * 1.03

    def test_respects_max_evals(self):
        solution = solve_knee(synthetic_p99, 100.0, 990.0,
                              slo_ns=synthetic_p99(600.0),
                              rel_tol=1e-9, max_evals=6)
        assert len(solution.evaluations) == 6

    def test_rejects_bad_bracket(self):
        with pytest.raises(ConfigurationError):
            solve_knee(synthetic_p99, 500.0, 100.0, slo_ns=1.0)
        with pytest.raises(ConfigurationError):
            solve_knee(synthetic_p99, 100.0, 500.0, slo_ns=0.0)


def curve_cells(points, slo_ns):
    """Sweep cells read off a sampled curve of ``(qps, p99_ns)``
    points; a ``None`` p99 stands for a cell whose backlog censored
    its window."""
    cells = []
    for qps, p99 in points:
        result = SimpleNamespace(
            backlog_fraction=1.0 if p99 is None else 0.0,
            response_p99_ns=p99, response_p99_lower_bound_ns=None,
            throughput_jobs_per_s=qps, completed_jobs=1,
            unfinished_jobs=0, service_p99_ns=0.0, response_mean_ns=None,
        )
        cells.append({"preset": "p", "offered_qps": qps,
                      **_read(result, slo_ns, backlog_threshold=0.5)})
    return cells


def knee_from_curve(points, slo_ns, refine_evals=0, measure=None):
    """The sweep's knee read off a sampled grid, refined by
    ``refine_evals`` calls of ``measure(preset, qps)``."""
    return _knee("p", curve_cells(points, slo_ns), measure, slo_ns,
                 refine_evals, saturation_qps=1000.0)


class TestKneeFromCurve:
    def test_reads_last_good_point(self):
        points = [(100.0, 10.0), (200.0, 20.0), (300.0, 90.0)]
        knee = knee_from_curve(points, slo_ns=50.0)
        assert knee["sustained_qps"] == 200.0
        assert knee["status"] == GRID
        assert knee["sustained_fraction_of_dram"] == pytest.approx(0.2)

    def test_none_when_even_lowest_violates(self):
        knee = knee_from_curve([(100.0, 99.0)], slo_ns=50.0)
        assert knee["sustained_qps"] is None
        assert knee["status"] == BELOW_RANGE
        assert knee["sustained_fraction_of_dram"] is None

    def test_censored_point_stops_the_scan(self):
        points = [(100.0, 10.0), (200.0, None), (300.0, 20.0)]
        assert knee_from_curve(points, slo_ns=50.0)["sustained_qps"] \
            == 100.0

    def test_every_grid_point_meeting_is_above_range(self):
        knee = knee_from_curve([(100.0, 10.0), (200.0, 20.0)], slo_ns=50.0)
        assert knee["sustained_qps"] == 200.0
        assert knee["status"] == ABOVE_RANGE

    def test_refinement_bisects_with_fresh_runs_only(self):
        probed = []

        def measure(preset, qps):
            probed.append(qps)
            return synthetic_p99(qps)

        knee = knee_from_curve([(100.0, synthetic_p99(100.0)),
                                (900.0, synthetic_p99(900.0))],
                               slo_ns=synthetic_p99(600.0), refine_evals=3,
                               measure=measure)
        assert knee["status"] == BRACKETED
        assert probed == [500.0, 700.0, 600.0]
        assert knee["sustained_qps"] == 600.0
        # The grid points come first, then each fresh probe once.
        assert [point["qps"] for point in knee["evaluations"]] == \
            [100.0, 900.0, 500.0, 700.0, 600.0]
        assert knee["evaluations"][-1]["p99_us"] == \
            pytest.approx(synthetic_p99(600.0) / US)

    def test_censored_cells_withhold_p99_and_miss_the_slo(self):
        censored, clean = curve_cells([(100.0, None), (200.0, 20.0)],
                                      slo_ns=50.0)
        assert censored["censored"] and censored["p99_us"] is None
        assert censored["meets_slo"] is False
        assert not clean["censored"] and clean["meets_slo"] is True
        assert clean["p99_us"] == pytest.approx(20.0 / US)

    def test_monotone_gate_skips_censored_cells(self):
        cells = curve_cells([(100.0, 30.0), (200.0, None), (300.0, 40.0)],
                            slo_ns=50.0)
        cells[1]["p99_us"] = 1.0  # ignored: the cell is censored
        assert SweepResult(LOADGEN, cells).ok
        cells[2]["p99_us"] = cells[0]["p99_us"] / 2
        assert not SweepResult(LOADGEN, cells).ok


# -------------------------------------------------------------- qps grids --


class TestParseQpsSweep:
    def test_absolute(self):
        grid = parse_qps_sweep("100:500:3")
        assert grid(12345.0) == (100.0, 300.0, 500.0)

    def test_relative_resolves_against_saturation(self):
        grid = parse_qps_sweep("0.5x:1.0x:2")
        assert grid(2000.0) == (1000.0, 2000.0)
        assert grid(4000.0) == (2000.0, 4000.0)

    def test_default_sweep_parses(self):
        points = parse_qps_sweep(DEFAULT_QPS_SWEEP)(1000.0)
        assert len(points) == 5
        assert points[0] == pytest.approx(300.0)

    def test_single_point(self):
        assert parse_qps_sweep("0.8x:0.8x:1")(1000.0) == (800.0,)

    @pytest.mark.parametrize("text", [
        "100:500", "a:b:3", "100:500:0", "-5:500:3", "500:100:3",
        "0.5x:0.9x:999", "3x:4x:2",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ReproError):
            parse_qps_sweep(text)


# ---------------------------------------------------------------- jsonutil --


class TestJsonUtil:
    def test_non_finite_floats_become_null(self):
        payload = {
            "rate": float("inf"),
            "neg": float("-inf"),
            "nan": float("nan"),
            "nested": [1.5, {"x": float("inf")}],
            "ok": 3.0,
        }
        round_tripped = json.loads(dumps(payload))
        assert round_tripped["rate"] is None
        assert round_tripped["neg"] is None
        assert round_tripped["nan"] is None
        assert round_tripped["nested"][1]["x"] is None
        assert round_tripped["ok"] == 3.0

    def test_closed_loop_rate_serializes_as_null(self):
        # The in-memory API keeps the honest math.inf; only the JSON
        # boundary rewrites it (json.dumps would emit Infinity, which
        # json.loads accepts but strict parsers reject).
        rate = ClosedLoop().rate_per_second
        assert math.isinf(rate)
        assert json.loads(dumps({"rate": rate}))["rate"] is None
        assert "Infinity" not in dumps({"rate": rate})

    def test_json_safe_preserves_structure(self):
        assert json_safe((1, 2.0, "x")) == [1, 2.0, "x"]
        assert json_safe({"a": True, "b": None}) == {"a": True, "b": None}


# ------------------------------------------------- censoring in the runner --


#: One core, a 2k-page dataset and a short window.
ONE_CORE = (
    ("num_cores", 1),
    ("scale.dataset_pages", 2048),
    ("scale.warmup_ns", 100.0 * US),
    ("scale.measurement_ns", 600.0 * US),
)


def overloaded_result():
    config = make_config("dram-only", ONE_CORE)
    workload = make_workload("arrayswap", 2048, seed=7, zipf_s=1.8)
    # Offer far more load than one core can serve: the window must end
    # with a backlog.
    arrivals = PoissonArrivals(100.0, seed=8)
    return Runner(config, workload, arrivals=arrivals).run()


class TestOpenLoopCensoring:
    @pytest.fixture(scope="class")
    def result(self):
        return overloaded_result()

    def test_backlog_is_reported(self, result):
        assert result.unfinished_jobs > 0
        assert result.unfinished_jobs == \
            result.queued_jobs + result.inflight_jobs
        offered = result.unfinished_jobs + result.completed_jobs
        assert result.backlog_fraction == \
            pytest.approx(result.unfinished_jobs / offered)
        assert result.backlog_fraction > 0.05

    def test_lower_bound_dominates_observed_p99(self, result):
        # Merging censored ages can only push the tail estimate up.
        assert result.response_p99_lower_bound_ns is not None
        assert result.response_p99_lower_bound_ns >= result.response_p99_ns

    def test_closed_loop_reports_no_backlog_fields(self):
        config = make_config("dram-only", ONE_CORE)
        workload = make_workload("arrayswap", 2048, seed=7, zipf_s=1.8)
        result = Runner(config, workload).run()
        assert result.response_p99_lower_bound_ns is None
        # A closed loop keeps every core busy: the in-flight jobs at
        # window end are the per-core currently-running ones.
        assert result.queued_jobs == 0


# ------------------------------------------------------------- end to end --


class TestRunLoadgen:
    @pytest.fixture(scope="class")
    def bench(self, tmp_path_factory):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_CACHE_DIR",
                         str(tmp_path_factory.mktemp("loadgen_store")))
            return run_loadgen(
                "fig10", scale=TINY, qps_sweep="0.4x:0.9x:2",
                workload="arrayswap", refine_evals=1,
            )

    def test_grid_shape(self, bench):
        detail = bench.detail()
        assert detail["presets"] == ["dram-only", "astriflash"]
        assert len(detail["qps_points"]) == 2
        assert len(bench.cells) == 4
        for preset in detail["presets"]:
            curve = [cell for cell in bench.cells if cell["preset"] == preset]
            assert [cell["offered_qps"] for cell in curve] == \
                detail["qps_points"]

    def test_schema_stamp_and_normalization(self, bench):
        detail = bench.detail()
        assert bench.record().schema_version == LEDGER_SCHEMA_VERSION
        assert detail["saturation_qps"] > 0
        assert detail["slo_us"] > 0
        for knee in detail["knees"]:
            if knee["sustained_qps"] is not None:
                assert knee["sustained_fraction_of_dram"] == pytest.approx(
                    knee["sustained_qps"] / detail["saturation_qps"])

    def test_censored_cells_withhold_p99(self, bench):
        for cell in bench.cells:
            if cell["censored"]:
                assert cell["p99_us"] is None
                assert cell["meets_slo"] is False
            else:
                assert cell["backlog_fraction"] <= \
                    bench.detail()["backlog_threshold"]

    def test_json_round_trips_strictly(self, bench, tmp_path):
        path = tmp_path / "loadgen.json"
        write_record(bench.record(), path)
        text = path.read_text()
        assert "Infinity" not in text
        assert "NaN" not in text
        document = json.loads(text)
        assert document["detail"]["qps_points"] == \
            bench.detail()["qps_points"]

    def test_rerun_is_bit_identical(self, bench, monkeypatch):
        # Stored results off, so the rerun simulates every cell again.
        monkeypatch.setenv("REPRO_CACHE", "0")
        rerun = run_loadgen(
            "fig10", scale=TINY, qps_sweep="0.4x:0.9x:2",
            workload="arrayswap", refine_evals=1,
        )
        assert dumps(rerun.detail()) == dumps(bench.detail())
        assert rerun.record().fingerprint == bench.record().fingerprint

    def test_flash_knee_never_beats_dram(self, tmp_path, monkeypatch):
        # The shared fixture's window censors every cell; a longer one
        # leaves both knees measurable.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        bench = run_loadgen(
            "fig10", scale=dataclasses.replace(TINY, measurement_us=4000.0),
            qps_sweep="0.2x:0.6x:2", workload="arrayswap", refine_evals=0,
        )
        knees = {knee["preset"]: knee["sustained_qps"]
                 for knee in bench.extra["knees"]}
        dram, flash = knees["dram-only"], knees["astriflash"]
        assert dram is not None and flash is not None
        assert flash <= dram

    def test_cli_json_is_a_record_that_regresses_clean(
            self, bench, tmp_path, monkeypatch, capsys):
        import repro.loadgen.sweep

        monkeypatch.setattr(repro.loadgen.sweep, "run_loadgen",
                            lambda *args, **kwargs: bench)
        out = tmp_path / "loadgen.json"
        assert main(["loadgen", "--json", str(out)]) == 0
        record = record_from_file(out)
        assert record.verb == "loadgen"
        assert record.fingerprint == bench.record().fingerprint
        assert record.policies["loadgen/monotonic_p99"] == {"mode": "exact"}
        # The ledger line is the same record plus its artifact path.
        appended = read_ledger()[-1]
        assert appended.artifacts == [str(out)]
        appended.artifacts = []
        assert appended.to_dict() == record.to_dict()
        assert main(["regress", "--baseline", str(out),
                     "--current", str(out)]) == 0

    def test_unknown_arrival_kind_raises(self):
        with pytest.raises(ReproError):
            run_loadgen("fig10", scale=TINY, arrival="sawtooth")
