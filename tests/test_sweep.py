"""Tests for repro.harness.sweep: a new sweep is one short declaration,
and the gates, table, record, grid runner and CLI path that ``chaos``,
``writes`` and ``loadgen`` share behave the same for any declaration."""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from operator import itemgetter
from pathlib import Path

import pytest

import repro.harness.sweep as sweep_module
from repro.cli import main
from repro.errors import ReproError
from repro.harness.common import QUICK, HarnessScale
from repro.harness.parallel import ParallelRunError, RunSpec
from repro.harness.sweep import (
    Column, Gate, Sweep, SweepResult, default_workload, experiment_presets,
    parse_points, run_sweep,
)
from repro.writes.bench import POLICY_ORDER

# One core and a 2k-page dataset.  The window is quick scale's 2 ms:
# a cell then completes 20-150 jobs, where 600 us leaves too few for
# the p99 to be more than the slowest sample.
TINY = HarnessScale(
    name="tiny", dataset_pages=2048, num_cores=1, warmup_us=100.0,
    measurement_us=2_000.0, zipf_s=1.8, workloads=("arrayswap",),
)


def test_flash_read_latency_sweep_is_a_short_declaration():
    reads_ns = (10_000.0, 50_000.0, 200_000.0)
    sweep = Sweep(
        verb="flash-read",
        head=("flash read sweep: {experiment} (workload={workload})",
              "  p99 monotone across sweep: {gate}"),
        gate=Gate("monotonic_p99", "service_p99_ns"),
        columns=(Column("read us", 7, ">7.0f",
                        lambda cell: cell["read_ns"] / 1000.0),
                 Column("p99 us", 8, ">8.1f",
                        lambda cell: cell["service_p99_ns"] / 1000.0)),
        metrics=(("service_p99_ns", ""), ("throughput_jobs_per_s", "info")),
        labels=(("read_ns", "read_ns"),),
        about=(("experiment", "flash-read"), ("scale", TINY.name),
               ("workload", "arrayswap"), ("presets", ["astriflash"])),
        points=tuple({"read_ns": read_ns} for read_ns in reads_ns),
        spec=lambda preset, point: RunSpec(
            preset, "arrayswap", TINY,
            config_overrides=(("flash.read_latency_ns", point["read_ns"]),)),
        read=lambda result: {
            "service_p99_ns": result.service_p99_ns,
            "throughput_jobs_per_s": result.throughput_jobs_per_s},
        seed=42, config_preset=TINY.name,
    )
    result = run_sweep(sweep)

    assert result.ok
    p99s = [cell["service_p99_ns"] for cell in result.cells]
    assert p99s == sorted(p99s) and p99s[0] < p99s[-1]
    record = result.record()
    assert record.verb == "flash-read"
    assert record.metrics["flash-read/monotonic_p99"] == 1.0
    for read_ns in reads_ns:
        labels = f"{{preset=astriflash,read_ns={read_ns:g}}}"
        assert f"flash-read/service_p99_ns{labels}" in record.metrics
        assert record.policies[f"flash-read/throughput_jobs_per_s{labels}"] \
            == {"mode": "info"}
    text = result.format_text().splitlines()
    assert text[:3] == ["flash read sweep: flash-read (workload=arrayswap)",
                        "  p99 monotone across sweep: yes",
                        "  astriflash:"]
    assert len(text) == 7


# ------------------------------------------------------- the declaration --


def toy(cells, gate=Gate("monotone_y", "y"), points=None, **fields):
    """A one-axis sweep over ``x`` whose cells are given, not run."""
    sweep = Sweep(
        verb="toy",
        head=("toy sweep: {experiment} (workload={workload})",
              "  y monotone: {gate}"),
        gate=gate,
        columns=(Column("x", 4, ">4g", itemgetter("x")),
                 Column("y", 6, ">6.1f", itemgetter("y"))),
        metrics=(("y", ""),),
        labels=(("x", "x"),),
        about=(("experiment", "toy"), ("scale", "tiny"), ("workload", "w"),
               ("presets", sorted({cell["preset"] for cell in cells}))),
        points=points if points is not None else tuple(
            {"x": x} for x in sorted({cell["x"] for cell in cells})),
        seed=7, config_preset="tiny",
    )
    return SweepResult(dataclasses.replace(sweep, **fields), cells)


def curve(ys, preset="a"):
    return [{"preset": preset, "x": float(x), "y": y}
            for x, y in enumerate(ys)]


class TestParsePoints:
    @pytest.mark.parametrize("text, interval, points", [
        ("0", "[0, 1)", (0.0,)),
        ("1", "(0, 1]", (1.0,)),
    ])
    def test_a_closed_end_is_a_point(self, text, interval, points):
        assert parse_points(text, "x", interval) == points

    @pytest.mark.parametrize("text, interval", [
        ("1", "[0, 1)"),
        ("0", "(0, 1]"),
    ])
    def test_an_open_end_is_not(self, text, interval):
        with pytest.raises(ReproError, match="outside"):
            parse_points(text, "x", interval)

    def test_blank_tokens_are_skipped(self):
        assert parse_points(" 0.5, ,0.25,", "x", "(0, 1]") == (0.25, 0.5)

    def test_messages_name_the_sweep(self):
        # The CLI prints these after "repro <verb>: error: ".
        with pytest.raises(ReproError) as bad:
            parse_points("0,abc", "rber", "[0, 1)")
        assert str(bad.value) == "bad rber sweep point 'abc'"
        with pytest.raises(ReproError) as outside:
            parse_points("1.5", "rber", "[0, 1)")
        assert str(outside.value) == "rber sweep point 1.5 outside [0, 1)"
        with pytest.raises(ReproError) as empty:
            parse_points(" , ", "rber", "[0, 1)")
        assert str(empty.value) == "rber sweep needs at least one point"


class TestMonotoneGate:
    def test_ties_hold(self):
        assert toy(curve([1.0, 1.0, 2.0])).ok

    def test_each_preset_is_its_own_curve(self):
        assert toy(curve([5.0, 6.0], "a") + curve([1.0, 2.0], "b")).ok
        assert not toy(curve([5.0, 6.0], "a") + curve([2.0, 1.0], "b")).ok

    def test_a_none_value_is_skipped(self):
        assert toy(curve([1.0, None, 2.0])).ok

    def test_a_dip_across_a_skipped_cell_still_fails(self):
        cells = curve([2.0, 3.0, 1.0])
        cells[1]["failed"] = True
        assert not toy(cells).ok


def order_cells(values, preset="p", ratio=0.5):
    return [{"preset": preset, "policy": policy, "ratio": ratio, "y": y}
            for policy, y in values.items()]


ORDER = Gate("order_ok", "y", factor="policy", order=("hi", "mid", "lo"),
             failure="order violated")


def order_result(cells):
    points = tuple({"policy": policy, "ratio": ratio} for policy, ratio in
                   sorted({(cell["policy"], cell["ratio"])
                           for cell in cells}))
    return toy(cells, gate=ORDER, points=points)


class TestOrderGate:
    def test_ties_fail(self):
        assert not order_result(order_cells({"hi": 2.0, "mid": 2.0})).ok

    def test_each_ratio_is_its_own_group(self):
        good = order_cells({"hi": 2.0, "lo": 1.0}, ratio=0.5)
        assert order_result(
            good + order_cells({"hi": 4.0, "lo": 3.0}, ratio=1.0)).ok
        assert not order_result(
            good + order_cells({"hi": 3.0, "lo": 4.0}, ratio=1.0)).ok

    def test_each_preset_is_its_own_group(self):
        # The inverted preset comes first, so a later good one cannot
        # stand in for it.
        bad = order_cells({"hi": 1.0, "lo": 2.0}, preset="p")
        assert not order_result(
            bad + order_cells({"hi": 2.0, "lo": 1.0}, preset="q")).ok

    def test_values_outside_the_order_are_ignored(self):
        assert order_result(
            order_cells({"hi": 2.0, "lo": 1.0, "other": 9.0})).ok

    def test_only_swept_values_are_ordered(self):
        # "mid" is not swept, so it cannot be missing.
        assert order_result(order_cells({"hi": 2.0, "lo": 1.0})).ok
        assert not order_result(order_cells({"hi": 1.0, "lo": 2.0})).ok


class TestPresetsAndWorkload:
    @pytest.mark.parametrize("experiment, drop, presets", [
        ("fig10", "", ("dram-only", "astriflash")),
        ("fig10", "dram-only", ("astriflash",)),
        ("table1", "", ("fallback",)),
    ])
    def test_configs_less_drop_or_fallback(self, experiment, drop, presets):
        assert experiment_presets(experiment, ("fallback",), drop) == presets

    def test_unknown_experiment_names_the_known_ones(self):
        with pytest.raises(ReproError) as error:
            experiment_presets("nope", ("fallback",))
        assert str(error.value).startswith(
            "unknown experiment 'nope'; known: fig1, fig10, ")

    @pytest.mark.parametrize("scale, workload", [
        (QUICK, "tatp"), (TINY, "arrayswap"),
    ], ids=["quick", "tiny"])
    def test_default_workload(self, scale, workload):
        assert default_workload(scale) == workload


class TestTable:
    def test_a_failed_cell_prints_the_failed_text(self):
        cells = curve([1.0, 2.0])
        cells[1]["failed"] = True
        text = toy(cells, failed="dead").format_text().splitlines()
        assert text[-1] == "       1    dead"

    def test_each_block_ends_with_its_tail(self):
        text = toy(curve([1.0], "a") + curve([2.0], "b"),
                   tail=lambda result, preset: [f"    end {preset}"],
                   ).format_text().splitlines()
        assert text == ["toy sweep: toy (workload=w)", "  y monotone: yes",
                        "  a:", "       x       y", "       0     1.0",
                        "    end a",
                        "  b:", "       x       y", "       0     2.0",
                        "    end b"]

    def test_a_block_is_a_run_of_cells_with_one_title(self):
        cells = order_cells({"hi": 2.0}, ratio=0.5) \
            + order_cells({"hi": 2.0}, ratio=1.0)
        for cell in cells:
            cell["x"] = 0.0
        titles = [line for line in toy(
            cells, block="  {preset} @ {ratio:g}:").format_text().splitlines()
            if line.startswith("  p @")]
        assert titles == ["  p @ 0.5:", "  p @ 1:"]


class TestRecord:
    def test_a_dict_column_is_one_metric_per_entry(self):
        cells = [{"preset": "a", "x": 0.5, "y": 1.0,
                  "counters": {"flash.read_retries": 3.0}}]
        record = toy(cells, metrics=(("counters", "info"),)).record()
        key = "toy/flash/read_retries{preset=a,x=0.5}"
        assert record.metrics[key] == 3.0
        assert record.policies[key] == {"mode": "info"}

    def test_summary_metrics_carry_the_verb_prefix(self):
        record = toy(curve([1.0]), summary=lambda result: [
            ("anchor", 5.0, {}), ("knee", 2.0, {"preset": "a"})]).record()
        assert record.metrics["toy/anchor"] == 5.0
        assert record.metrics["toy/knee{preset=a}"] == 2.0
        assert record.seed == 7

    def test_detail_is_a_copy_in_declared_order(self):
        result = toy(curve([1.0]))
        result.extra["knees"] = []
        detail = result.detail()
        assert list(detail) == ["experiment", "scale", "workload",
                                "presets", "cells", "knees", "monotone_y",
                                "config_preset"]
        detail["cells"][0]["y"] = 9.0
        assert result.cells[0]["y"] == 1.0


class TestRunSweep:
    @staticmethod
    def declared(**fields):
        return toy(curve([0.0, 0.0], "a") + curve([0.0, 0.0], "b"),
                   spec=lambda preset, point: (preset, point["x"]),
                   read=lambda result: {"y": None if result is None
                                        else result[1]}, **fields).sweep

    def test_the_grid_is_preset_major(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "run_specs",
                            lambda specs, jobs=None: list(specs))
        cells = run_sweep(self.declared()).cells
        assert [(cell["preset"], cell["x"], cell["y"]) for cell in cells] \
            == [("a", 0.0, 0.0), ("a", 1.0, 1.0),
                ("b", 0.0, 0.0), ("b", 1.0, 1.0)]
        assert "failed" not in cells[0]

    @staticmethod
    def cell_a1_raises(cause):
        """``run_specs`` as if the ("a", 1.0) cell's run raised
        ``cause``."""
        def run_specs(specs, jobs=None):
            results = [None if spec == ("a", 1.0) else spec
                       for spec in specs]
            raise ParallelRunError(
                [(RunSpec("a", "toy", "quick"), cause)], results)
        return run_specs

    def test_a_run_that_raised_is_a_failed_cell(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "run_specs",
                            self.cell_a1_raises(ReproError("dead")))
        cells = run_sweep(self.declared(failed="dead")).cells
        assert [cell["failed"] for cell in cells] == \
            [False, True, False, False]
        assert cells[1]["y"] is None

    @pytest.mark.parametrize("failed, cause", [
        ("", ReproError("dead")), ("dead", ZeroDivisionError("bug"))])
    def test_other_failures_end_the_sweep(self, failed, cause,
                                          monkeypatch):
        monkeypatch.setattr(sweep_module, "run_specs",
                            self.cell_a1_raises(cause))
        with pytest.raises(ParallelRunError):
            run_sweep(self.declared(failed=failed))


def test_writes_bench_import_stays_light():
    # The benchmark's set-up child imports this module.
    src = str(Path(sweep_module.__file__).resolve().parents[2])
    code = ("import sys, repro.writes.bench; print([name for name in "
            "('repro.metrics', 'repro.loadgen', 'repro.faults.chaos') "
            "if name in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


class TestSweepVerbs:
    @pytest.mark.parametrize("verb, module, run", [
        ("chaos", "repro.faults.chaos", "run_chaos"),
        ("writes", "repro.writes.bench", "run_writes"),
        ("loadgen", "repro.loadgen.sweep", "run_loadgen"),
    ])
    def test_every_flag_reaches_the_run(self, verb, module, run,
                                        monkeypatch, capsys):
        module = importlib.import_module(module)
        params = inspect.signature(getattr(module, run)).parameters
        seen = {}

        def capture(**kwargs):
            seen.update(kwargs)
            raise ReproError("stop")

        monkeypatch.setattr(module, run, capture)
        assert main([verb, "--jobs", "3"]) == 2
        assert set(seen) <= set(params)
        assert seen["scale"] == "quick" and seen["jobs"] == 3
        assert seen["experiment"] == params["experiment"].default

    def test_a_failed_writes_order_exits_1(self, monkeypatch, capsys):
        import repro.writes.bench as writes

        points = tuple({"policy": policy, "write_ratio": 0.5}
                       for policy in POLICY_ORDER[:2])
        cells = [{"preset": "p", **point, **writes.WRITES.read(None),
                  "flash_writes_per_app_write": value, "failed": False}
                 for point, value in zip(points, (0.3, 0.9))]
        result = SweepResult(dataclasses.replace(
            writes.WRITES, points=points, about=(
                ("experiment", "kv"), ("scale", "quick"),
                ("workload", "kvstore"), ("seed", 42))), cells)
        monkeypatch.setattr(writes, "run_writes", lambda **kwargs: result)
        assert main(["writes"]) == 1
        captured = capsys.readouterr()
        assert "policy WA order (wt > wb > readiness): NO" in captured.out
        assert captured.err == f"writes: {writes.WRITES.gate.failure}\n"

    def test_a_non_monotone_chaos_curve_exits_0(self, monkeypatch, capsys):
        import repro.faults.chaos as chaos

        cells = [{"preset": "p", "rber": rber, **chaos.CHAOS.read(None),
                  "service_p99_ns": p99, "failed": False}
                 for rber, p99 in ((0.0, 2.0), (8e-3, 1.0))]
        result = SweepResult(dataclasses.replace(
            chaos.CHAOS, points=({"rber": 0.0}, {"rber": 8e-3}), about=(
                ("experiment", "fig9"), ("scale", "quick"),
                ("workload", "tatp"), ("fault_seed", 1))), cells)
        monkeypatch.setattr(chaos, "run_chaos", lambda **kwargs: result)
        assert main(["chaos"]) == 0
        captured = capsys.readouterr()
        assert "p99 monotone across sweep: NO" in captured.out
        assert captured.err == ""
