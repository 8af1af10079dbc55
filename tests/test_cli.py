"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.metrics import make_record, write_record
from repro.sim.engine import total_events_executed


class TestListingCommands:
    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table2" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "tatp" in out and "masstree" in out

    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "astriflash" in out and "flash-sync" in out


class TestRunCommands:
    def test_run_analytic_experiment(self, capsys):
        assert main(["run", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "fig42"])

    def test_run_writes_nothing_into_the_working_directory(
            self, tmp_path, monkeypatch, capsys):
        # Fig. 1 is simulated on every run: no result file is stored.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig1"]) == 0
        assert "Fig. 1" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_run_accepts_jobs_flag(self, capsys):
        assert main(["run", "fig2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out

    def test_simulate_closed_loop(self, capsys):
        assert main([
            "simulate", "--config", "dram-only", "--workload", "arrayswap",
            "--dataset-pages", "2048", "--measurement-us", "800",
        ]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_simulate_open_loop(self, capsys):
        assert main([
            "simulate", "--config", "dram-only", "--workload", "arrayswap",
            "--dataset-pages", "2048", "--measurement-us", "800",
            "--interarrival-us", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "jobs/s" in out

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestErrorExit:
    """A bad argument value ends any verb the same way: exit 2 and one
    ``repro <verb>: error:`` line on stderr, never a traceback (exit 1
    is a failed gate)."""

    @pytest.mark.parametrize("argv", [
        ["chaos", "fig9", "--rber-sweep", "abc"],
        ["loadgen", "fig10", "--qps-sweep", "abc"],
        ["simulate", "--cores", "0"],
        ["writes", "kv", "--write-ratio-sweep", "abc"],
        pytest.param(["writes", "kv", "--presets", "nope"],
                     id="writes-unknown-preset"),
        pytest.param(["writes", "kv", "--presets", "astriflash"],
                     id="writes-read-only-preset"),
        pytest.param(["writes", "kv", "--policies", ","],
                     id="writes-empty-policies"),
        pytest.param(["writes", "kv", "--presets", ","],
                     id="writes-empty-presets"),
        pytest.param(["loadgen", "fig10", "--rber", "-0.008"],
                     id="loadgen-negative-rber"),
        pytest.param(["loadgen", "fig10", "--rber", "1"],
                     id="loadgen-rber-one"),
        pytest.param(["loadgen", "fig10", "--rber", "nan"],
                     id="loadgen-rber-nan"),
        pytest.param(["loadgen", "fig10", "--backlog-threshold", "-0.1"],
                     id="loadgen-negative-backlog-threshold"),
        pytest.param(["loadgen", "fig10", "--backlog-threshold", "1.5"],
                     id="loadgen-backlog-threshold-above-one"),
        pytest.param(["loadgen", "fig10", "--slo-us", "-5"],
                     id="loadgen-negative-slo"),
        pytest.param(["loadgen", "fig10", "--slo-us", "0"],
                     id="loadgen-zero-slo"),
        pytest.param(["loadgen", "fig10", "--slo-us", "nan"],
                     id="loadgen-slo-nan"),
        pytest.param(["loadgen", "fig10", "--refine-evals", "-1"],
                     id="loadgen-negative-refine-evals"),
        pytest.param(["trace-run", "table2", "--telemetry-interval-us",
                      "-1"], id="trace-run-negative-telemetry-interval"),
        pytest.param(["run", "fig3", "--jobs", "0"], id="run-jobs-zero"),
        pytest.param(["run", "fig3", "--jobs", "-4"],
                     id="run-jobs-negative"),
        pytest.param(["run-all", "--jobs", "0"], id="run-all-jobs-zero"),
        pytest.param(["report", "--jobs", "0"], id="report-jobs-zero"),
        pytest.param(["chaos", "fig9", "--jobs", "0"], id="chaos-jobs-zero"),
        pytest.param(["writes", "kv", "--jobs", "0"], id="writes-jobs-zero"),
        pytest.param(["loadgen", "fig10", "--jobs", "0"],
                     id="loadgen-jobs-zero"),
        pytest.param(["history", "--last", "-1"],
                     id="history-negative-last"),
    ], ids=lambda argv: argv[0])
    def test_bad_value_exits_2_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: error: ")
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_repro_jobs_exits_2_with_one_line(self, value, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", value)
        assert main(["run", "fig3"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro run: error: REPRO_JOBS ")

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--measurement-us", "inf"],
                     id="simulate-measurement-inf"),
        pytest.param(["simulate", "--interarrival-us", "inf"],
                     id="simulate-interarrival-inf"),
        pytest.param(["simulate", "--interarrival-us", "nan"],
                     id="simulate-interarrival-nan"),
        pytest.param(["simulate", "--zipf", "nan"], id="simulate-zipf-nan"),
        pytest.param(["simulate", "--zipf", "inf"], id="simulate-zipf-inf"),
        pytest.param(["loadgen", "fig10", "--qps-sweep", "nan:0.9x:2",
                      "--refine-evals", "0"], id="loadgen-qps-sweep-nan"),
        pytest.param(["loadgen", "fig10", "--qps-sweep", "1e3:inf:2"],
                     id="loadgen-qps-sweep-inf"),
    ])
    def test_non_finite_input_fails_before_simulating(self, argv, capsys):
        """A non-finite number is refused where it enters, by name,
        before any event runs."""
        before = total_events_executed()
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: error: ")
        assert "finite" in lines[0]
        assert total_events_executed() == before

    @pytest.mark.parametrize("threshold", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("verb", ["diff", "regress"])
    def test_bad_threshold_exits_2_with_one_line(self, verb, threshold,
                                                 tmp_path, capsys):
        """Over a 5x p99 regression, a negative or non-finite threshold
        is an error, not a verdict."""
        paths = []
        for name, p99 in (("base", 100.0), ("slow", 500.0)):
            paths.append(str(tmp_path / f"{name}.json"))
            write_record(make_record(
                "simulate", metrics={"runner/service_p99_ns": p99}),
                paths[-1])
        runs = paths if verb == "diff" else \
            ["--baseline", paths[0], "--current", paths[1]]
        assert main([verb, *runs, "--threshold", threshold]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"repro {verb}: error: --threshold must be "
                         f"finite and >= 0, got {float(threshold):g}"]

    def test_closed_stdout_exits_141_quietly(self):
        # The reader closes the pipe before the verb writes its
        # listing: exit 141 (128 + SIGPIPE) and no traceback.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen([sys.executable, "-m", "repro", "configs"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == ""


class TestReportCommand:
    def test_report_writes_file(self, tmp_path, capsys, monkeypatch):
        # Patch the registry down to cheap analytic artifacts.
        import repro.cli as cli
        from repro.harness import EXPERIMENTS
        cheap = {k: EXPERIMENTS[k] for k in ("table1", "fig2", "fig3")}
        monkeypatch.setattr(cli, "EXPERIMENTS", cheap)
        out = str(tmp_path / "report.txt")
        assert cli.main(["report", "--out", out]) == 0
        content = open(out).read()
        assert "Table I" in content and "Fig. 3" in content

    def test_report_telemetry_appends_attribution(self, tmp_path, capsys,
                                                  monkeypatch):
        import repro.cli as cli
        from repro.harness import EXPERIMENTS
        cheap = {k: EXPERIMENTS[k] for k in ("table1",)}
        monkeypatch.setattr(cli, "EXPERIMENTS", cheap)
        # The breakdown itself (three traced simulations) is covered by
        # test_obs; here only the report wiring is under test.
        monkeypatch.setattr(cli, "_telemetry_breakdown",
                            lambda scale: "FAKE BREAKDOWN")
        out = str(tmp_path / "report.txt")
        assert cli.main(["report", "--out", out, "--telemetry"]) == 0
        printed = capsys.readouterr().out
        assert "FAKE BREAKDOWN" in printed
        content = open(out).read()
        assert "Tail-latency attribution" in content
        assert "FAKE BREAKDOWN" in content


class TestTraceRunCommand:
    def test_trace_run_writes_valid_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        telemetry = tmp_path / "telemetry.csv"
        # fig2 is analytic (no simulation): the cheapest path through
        # the full trace-run plumbing — the exported trace is empty but
        # must still be a valid document, and the command must succeed.
        assert main(["trace-run", "fig2", "--out", str(out),
                     "--telemetry-out", str(telemetry)]) == 0
        printed = capsys.readouterr().out
        assert "trace:" in printed and "telemetry:" in printed
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        assert telemetry.exists()

    def test_trace_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["trace-run", "fig42"])

    def test_trace_run_traces_a_simulation(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        # table2 quick is the smallest simulation-backed experiment;
        # --sample keeps the record volume low.
        assert main(["trace-run", "table2", "--out", str(out),
                     "--sample", "2"]) == 0
        printed = capsys.readouterr().out
        assert "requests traced" in printed
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        assert document["otherData"]["requests_traced"] > 0
