"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


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
    ], ids=lambda argv: argv[0])
    def test_bad_value_exits_2_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: error: ")
        assert "Traceback" not in captured.err + captured.out


class TestSnapshotFlags:
    def test_no_snapshot_sets_env(self, capsys, monkeypatch):
        # setenv first so monkeypatch restores the pre-test value after
        # main() mutates os.environ directly.
        monkeypatch.setenv("REPRO_SNAPSHOT", "1")
        assert main(["run", "fig3", "--no-snapshot"]) == 0
        assert os.environ.get("REPRO_SNAPSHOT") == "0"

    def test_snapshot_dir_sets_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR",
                           os.environ.get("REPRO_CACHE_DIR", ""))
        target = str(tmp_path / "snaps")
        assert main(["run", "fig3", "--snapshot-dir", target]) == 0
        assert os.environ.get("REPRO_CACHE_DIR") == target


class TestCacheCommand:
    def test_cache_clean_missing_dir(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["cache", "clean", "--dir", str(missing)]) == 0
        assert "does not exist" in capsys.readouterr().out

    def test_cache_clean_removes_files(self, tmp_path, capsys):
        (tmp_path / "a.snap").write_bytes(b"x" * 10)
        (tmp_path / "b.pkl").write_bytes(b"y" * 10)
        assert main(["cache", "clean", "--dir", str(tmp_path)]) == 0
        assert "removed 2 files" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_cache_clean_max_bytes_prunes_lru(self, tmp_path, capsys):
        old = tmp_path / "old.snap"
        old.write_bytes(b"x" * 100)
        os.utime(old, (1_000_000, 1_000_000))
        new = tmp_path / "new.snap"
        new.write_bytes(b"y" * 100)
        assert main(["cache", "clean", "--dir", str(tmp_path),
                     "--max-bytes", "100"]) == 0
        assert "pruned 1" in capsys.readouterr().out
        assert new.exists() and not old.exists()


class TestBenchSweepCommand:
    def test_bench_sweep_writes_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "sweep.json"
        assert main(["bench-sweep", "fig1", "--scale", "quick",
                     "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "speedup" in printed
        data = json.loads(out.read_text())
        assert data["verb"] == "bench-sweep"
        assert data["experiment"] == "fig1"
        assert data["detail"]["speedup"] > 0
        assert main(["regress", "--baseline", str(out),
                     "--current", str(out)]) == 0


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
