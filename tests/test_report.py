"""Tests for the ASCII chart and report writer."""

import math

import pytest

from repro import snapshot
from repro.errors import ReproError
from repro.harness import run_experiment
from repro.harness.common import ExperimentResult, HarnessScale
from repro.harness.parallel import RunSpec, run_specs
from repro.harness.report import (
    ascii_chart,
    chart_for,
    generate,
    render,
    write_report,
)

# Small enough that one run takes a fraction of a second.
TINY = HarnessScale(
    name="tiny", dataset_pages=2048, num_cores=1, warmup_us=100.0,
    measurement_us=600.0, zipf_s=1.8, workloads=("arrayswap",),
)


class TestAsciiChart:
    def test_renders_fixed_size(self):
        chart = ascii_chart({"a": [(0, 0), (1, 1)]}, width=20, height=5)
        body = [line for line in chart.splitlines()
                if line.startswith("|")]
        assert len(body) == 5
        assert all(len(line) == 22 for line in body)

    def test_markers_distinguish_series(self):
        chart = ascii_chart(
            {"a": [(0.0, 0.0)], "b": [(1.0, 1.0)]}, width=20, height=5
        )
        assert "*" in chart and "o" in chart
        assert "*=a" in chart and "o=b" in chart

    def test_log_scale(self):
        chart = ascii_chart({"a": [(0, 1), (1, 1000)]}, logy=True)
        assert "(log)" in chart

    def test_infinite_points_skipped(self):
        chart = ascii_chart({"a": [(0, 1), (1, math.inf)]})
        assert chart  # no crash

    def test_empty_series_raises(self):
        with pytest.raises(ReproError):
            ascii_chart({})
        with pytest.raises(ReproError):
            ascii_chart({"a": [(0, math.inf)]})

    def test_too_small_raises(self):
        with pytest.raises(ReproError):
            ascii_chart({"a": [(0, 1)]}, width=2, height=2)


class TestExperimentCharts:
    def test_fig3_has_chart(self):
        result = run_experiment("fig3")
        chart = chart_for(result)
        assert "astriflash" in chart
        assert "(log)" in chart

    def test_fig2_has_chart(self):
        assert chart_for(run_experiment("fig2"))

    def test_tables_have_no_chart(self):
        assert chart_for(run_experiment("table1")) == ""

    def test_render_combines_table_and_chart(self):
        text = render(run_experiment("fig3"))
        assert "Fig. 3" in text
        assert "|" in text  # chart body present


class TestWriteReport:
    def test_report_file(self, tmp_path):
        results = [run_experiment("table1"), run_experiment("fig2")]
        path = str(tmp_path / "report.txt")
        write_report(results, path, header="Reproduction report")
        content = open(path).read()
        assert content.startswith("Reproduction report")
        assert "Table I" in content
        assert "Fig. 2" in content

    def test_footer_counts_restored_and_fresh_warms(self, tmp_path):
        """Two specs that share a warm key, run from empty tables: the
        first warms freshly and the second restores its payload."""
        snapshot.clear_memo()
        specs = [RunSpec(name, "arrayswap", TINY, seed=7)
                 for name in ("astriflash", "flash-sync")]

        def experiment(scale, jobs):
            run_specs(specs, jobs=jobs)
            return ExperimentResult("tiny", "Tiny", ["x"], [[1]])

        out = tmp_path / "report.txt"
        generate({"tiny": experiment}, out=str(out))
        assert "1 restored, 1 freshly warmed" in out.read_text()
