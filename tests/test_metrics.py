"""Tests for the metrics registry, run ledger, diff/regress tooling
and the static dashboard (repro.metrics)."""

import copy
import dataclasses
import json
import math
from html.parser import HTMLParser

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.metrics import (
    DEFAULT_THRESHOLD,
    EXACT,
    LEDGER_SCHEMA_VERSION,
    MetricSet,
    RunRecord,
    append_record,
    classify_delta,
    diff_records,
    filter_records,
    format_key,
    make_record,
    metric_direction,
    parse_key,
    payload_digest,
    read_ledger,
    record_from_file,
    render_dashboard,
    run_regress,
    select_record,
    write_record,
)
from repro.faults.chaos import CHAOS
from repro.harness.sweep import SweepResult


# ------------------------------------------------------------- registry --


class TestRegistry:
    def test_format_and_parse_round_trip(self):
        key = format_key("flash/reads", {"preset": "astriflash",
                                         "workload": "tatp"})
        assert key == "flash/reads{preset=astriflash,workload=tatp}"
        name, labels = parse_key(key)
        assert name == "flash/reads"
        assert labels == {"preset": "astriflash", "workload": "tatp"}

    def test_format_key_sorts_labels(self):
        a = format_key("x/y", {"b": "2", "a": "1"})
        b = format_key("x/y", {"a": "1", "b": "2"})
        assert a == b == "x/y{a=1,b=2}"

    def test_metric_set_skips_none_and_nonfinite(self):
        metrics = MetricSet()
        metrics.add("a/b", None)
        metrics.add("a/c", float("nan"))
        metrics.add("a/d", float("inf"))
        metrics.add("a/e", 1.0)
        assert list(metrics.as_dict()) == ["a/e"]

    def test_metric_set_merge_and_filter(self):
        left = MetricSet()
        left.add("flash/reads", 5.0, preset="p")
        right = MetricSet()
        right.add("gc/moves", 2.0, gate=EXACT)
        left.merge(right)
        assert len(left) == 2
        assert list(left.as_dict()) == ["flash/reads{preset=p}", "gc/moves"]
        # Gate policies follow their keys through merge.
        assert left.policies() == {"gc/moves": {"mode": "exact"}}
        # "policy" stays free as a label (writes/* metrics use it).
        right.add("writes/admission_rejects", 3.0, gate=EXACT,
                  policy="readiness")
        key = "writes/admission_rejects{policy=readiness}"
        assert right.get(key) == 3.0
        assert right.policies()[key] == {"mode": "exact"}

    def test_result_metrics_exclude_wall_fields(self):
        from repro.config import make_config
        from repro.core import Runner
        from repro.units import US
        from repro.workloads import make_workload

        config = make_config("dram-only", (
            ("num_cores", 1),
            ("scale.dataset_pages", 2048),
            ("scale.measurement_ns", 200 * US),
        ))
        workload = make_workload("arrayswap", 2048, seed=3)
        result = Runner(config, workload).run()
        metrics = result.metrics()
        keys = metrics.as_dict()
        assert any(key.startswith("runner/throughput_jobs_per_s")
                   for key in keys)
        assert any(key.startswith("engine/events_executed")
                   for key in keys)
        assert not any("wall_seconds" in key for key in keys)
        # Labels ride on every key.
        sample = next(iter(metrics))
        assert sample.label("preset") == "dram-only"
        assert sample.label("workload") == "arrayswap"


def _chaos_bench(p99_ns=90000.0, failed=False):
    """A two-cell chaos sweep with fixed (host-independent) figures."""
    payload = dict(CHAOS_PAYLOAD, config_preset="quick")
    result = _sweep_result(CHAOS, payload, seed=1)
    result.cells[1].update(service_p99_ns=p99_ns, failed=failed)
    return result


def _sweep_result(sweep, payload, seed):
    """A sweep result rebuilt from its record's detail payload."""
    about = tuple((key, value) for key, value in payload.items()
                  if key not in ("cells", "knees", sweep.gate.name,
                                 "config_preset"))
    sweep = dataclasses.replace(
        sweep, about=about, seed=seed,
        config_preset=payload.get("config_preset", ""))
    extra = {"knees": payload["knees"]} if "knees" in payload else {}
    return SweepResult(sweep, copy.deepcopy(payload["cells"]),
                       copy.deepcopy(extra))


class TestBenchView:
    """A bench result's view on the registry: its record's metrics,
    gate policies, fingerprint and detail."""

    def test_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ReproError, match="not a run record"):
            record_from_file(path)
        path.write_text("{truncated")
        with pytest.raises(ReproError, match="not valid JSON"):
            record_from_file(path)

    def test_chaos_view_policies(self, tmp_path):
        record = _chaos_bench().record()
        assert record.verb == "chaos"
        assert record.schema_version == LEDGER_SCHEMA_VERSION
        assert record.metrics["chaos/monotonic_p99"] == 1.0
        assert record.policies["chaos/monotonic_p99"] == {"mode": "exact"}
        key = "chaos/service_p99_ns{preset=astriflash,rber=0.008}"
        assert record.metrics[key] == 90000.0
        assert key not in record.policies  # relative by default
        key = "chaos/flash/read_retries{preset=astriflash,rber=0.008}"
        assert record.policies[key] == {"mode": "info"}
        # The fingerprint digests the whole typed result.
        assert record.fingerprint == payload_digest(record.detail)
        assert record.detail["cells"][1]["rber"] == 8e-3
        path = tmp_path / "record.json"
        write_record(record, path)
        assert record_from_file(path).to_dict() == record.to_dict()

    def test_chaos_view_failed_cells(self):
        record = _chaos_bench(failed=True).record()
        key = "chaos/failed{preset=astriflash,rber=0.008}"
        assert record.metrics[key] == 1.0
        assert record.policies[key] == {"mode": "exact"}
        # A dead cell contributes no figures, only its failure flag.
        assert not any("rber=0.008" in name for name in record.metrics
                       if not name.startswith("chaos/failed"))
        assert record.fingerprint != _chaos_bench().record().fingerprint


# --------------------------------------------------------------- ledger --


class TestLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        record = make_record("simulate", preset="astriflash",
                             workload="tatp", seed=7,
                             metrics={"flash/reads": 5.0},
                             fingerprint="f00",
                             wall_seconds=1.5, events_per_second=2e5)
        append_record(record, path)
        loaded = read_ledger(path)
        assert len(loaded) == 1
        assert loaded[0].to_dict() == record.to_dict()
        # A schema-1 line (before policies/detail) still loads.
        old = record.to_dict()
        del old["policies"], old["detail"]
        old["schema_version"] = 1
        with open(path, "a") as handle:
            handle.write(json.dumps(old) + "\n")
        legacy = read_ledger(path)[-1]
        assert legacy.policies == {} and legacy.detail == {}
        assert legacy.metrics == record.metrics

    def test_record_id_ignores_wall_fields(self):
        a = make_record("simulate", preset="p", metrics={"m": 1.0},
                        wall_seconds=1.0, events_per_second=100.0,
                        artifacts=["/tmp/a.json"])
        b = make_record("simulate", preset="p", metrics={"m": 1.0},
                        wall_seconds=9.0, events_per_second=999.0,
                        artifacts=["/other/b.json"])
        assert a.record_id == b.record_id
        c = make_record("simulate", preset="p", metrics={"m": 2.0})
        assert c.record_id != a.record_id

    def test_read_ledger_skips_malformed_lines(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        record = make_record("profile", metrics={"m": 1.0})
        append_record(record, path)
        with open(path, "a") as handle:
            handle.write("not json\n\n{\"no_verb\": 1}\n")
        append_record(record, path)
        assert len(read_ledger(path)) == 2
        assert "ledger: skipped 2 malformed line(s)" in \
            capsys.readouterr().err

    def test_truncated_trailing_line_is_reported(self, tmp_path,
                                                monkeypatch, capsys):
        """A truncated newest append makes regress gate an older
        record: every ledger-reading verb must say so on stderr."""
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        path = tmp_path / "ledger.jsonl"
        record = make_record("simulate", metrics={"m/x": 1.0})
        append_record(record, path)
        append_record(record, path)
        line = json.dumps(record.to_dict())
        with open(path, "a") as handle:
            handle.write(line[:len(line) // 2])
        baseline = tmp_path / "base.json"
        write_record(record, baseline)
        for argv in (["history"], ["diff", "0", "-1"],
                     ["regress", "--baseline", str(baseline)],
                     ["dashboard", "--out", str(tmp_path / "r.html")]):
            assert main(argv) == 0, argv
            err = capsys.readouterr().err
            assert "ledger: skipped 1 malformed line(s)" in err, argv

    def test_missing_ledger_is_empty(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == []

    def test_disable_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        path = tmp_path / "ledger.jsonl"
        assert append_record(make_record("simulate"), path) is None
        assert not path.exists()

    def test_filter_records(self):
        records = [
            RunRecord(verb="simulate", preset="a"),
            RunRecord(verb="profile", preset="a"),
            RunRecord(verb="simulate", preset="b"),
        ]
        assert len(filter_records(records, verb="simulate")) == 2
        assert len(filter_records(records, preset="a")) == 2
        assert len(filter_records(records, verb="simulate", last=1)) == 1
        assert filter_records(records, verb="simulate",
                              last=1)[0].preset == "b"

    def test_select_record_forms(self, tmp_path):
        records = [RunRecord(verb="simulate", record_id="aaa111"),
                   RunRecord(verb="profile", record_id="bbb222")]
        assert select_record(records, "-1").verb == "profile"
        assert select_record(records, "aaa").verb == "simulate"
        with pytest.raises(ReproError):
            select_record(records, "5")
        with pytest.raises(ReproError):
            select_record(records, "zzz")
        # A run made again carries the same content-hash id: its
        # newest line is selected, by a prefix or by the whole id.
        rerun = [RunRecord(verb="simulate", record_id="ccc333",
                           timestamp=stamp)
                 for stamp in ("t0", "t1", "t2")]
        assert select_record(records + rerun, "ccc").timestamp == "t2"
        assert select_record(records + rerun, "ccc333") is rerun[-1]
        # A prefix of two different ids stays ambiguous.
        with pytest.raises(ReproError, match="ambiguous"):
            select_record(records + [RunRecord(verb="simulate",
                                               record_id="aaa999")], "aaa")

    @pytest.mark.parametrize("config", ["dram-only", "astriflash",
                                        "os-swap"])
    def test_identical_seed_runs_identical_records(self, config, tmp_path,
                                                   monkeypatch, capsys):
        """Two identical-seed simulate runs append records whose
        normalized payloads (and so record_ids) are identical.  The
        record reads the machine after the run (GC and wear figures,
        the fingerprint), so a flash-backed run's record carries them
        and nothing is reported on stderr."""
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        argv = ["simulate", "--config", config, "--workload",
                "arrayswap", "--dataset-pages", "2048",
                "--measurement-us", "1000", "--seed", "11"]
        assert main(list(argv)) == 0
        assert main(list(argv)) == 0
        assert capsys.readouterr().err == ""
        first, second = read_ledger(tmp_path / "ledger.jsonl")
        assert first.record_id == second.record_id
        assert first.normalized() == second.normalized()
        assert first.metrics == second.metrics
        assert first.fingerprint == second.fingerprint
        has_gc = any(key.startswith("gc/blocked_fraction")
                     for key in first.metrics)
        assert has_gc == (config != "dram-only")


# ----------------------------------------------------------------- diff --


class TestDiff:
    def test_direction_heuristics(self):
        assert metric_direction("runner/service_p99_ns") == "lower"
        assert metric_direction("runner/throughput_jobs_per_s") == "higher"
        assert metric_direction("flash/erase_count_mean") == "neutral"
        # Label block does not confuse the parser.
        assert metric_direction(
            "loadgen/p99_us{preset=astriflash}") == "lower"

    def test_relative_within_noise(self):
        delta = classify_delta("runner/service_p99_ns", 100.0, 104.0,
                               DEFAULT_THRESHOLD)
        assert delta.verdict == "within-noise"

    def test_relative_regression_lower_better(self):
        delta = classify_delta("runner/service_p99_ns", 100.0, 120.0,
                               DEFAULT_THRESHOLD)
        assert delta.verdict == "regression"

    def test_relative_improvement_lower_better(self):
        delta = classify_delta("runner/service_p99_ns", 100.0, 80.0,
                               DEFAULT_THRESHOLD)
        assert delta.verdict == "improvement"

    def test_relative_regression_higher_better(self):
        delta = classify_delta("profile/events_per_second", 100.0, 80.0,
                               DEFAULT_THRESHOLD)
        assert delta.verdict == "regression"

    def test_neutral_direction_reports_changed(self):
        delta = classify_delta("flash/erase_count_mean", 100.0, 200.0,
                               DEFAULT_THRESHOLD)
        assert delta.verdict == "changed"

    def test_exact_policy(self):
        delta = classify_delta("chaos/monotonic_p99", 1.0, 0.0,
                               DEFAULT_THRESHOLD, {"mode": "exact"})
        assert delta.verdict == "regression"
        same = classify_delta("chaos/monotonic_p99", 1.0, 1.0,
                              DEFAULT_THRESHOLD, {"mode": "exact"})
        assert same.verdict == "within-noise"

    def test_info_policy_never_gates(self):
        delta = classify_delta("profile/wall_seconds", 1.0, 99.0,
                               DEFAULT_THRESHOLD, {"mode": "info"})
        assert delta.verdict == "within-noise"

    def test_added_and_removed(self):
        added = classify_delta("a/b", None, 1.0, DEFAULT_THRESHOLD)
        removed = classify_delta("a/b", 1.0, None, DEFAULT_THRESHOLD)
        assert added.verdict == "added"
        assert removed.verdict == "removed"

    def test_diff_records_fingerprints(self):
        base = RunRecord(verb="simulate", fingerprint="aaa",
                         metrics={"m/x": 1.0})
        same = RunRecord(verb="simulate", fingerprint="aaa",
                         metrics={"m/x": 1.0})
        other = RunRecord(verb="simulate", fingerprint="bbb",
                          metrics={"m/x": 1.0})
        assert diff_records(base, same).fingerprint_match is True
        assert diff_records(base, other).fingerprint_match is False
        blank = RunRecord(verb="simulate", metrics={"m/x": 1.0})
        assert diff_records(base, blank).fingerprint_match is None


# -------------------------------------------------------------- regress --


class TestRegress:
    def _write(self, path, record=None):
        write_record(record or _chaos_bench().record(), path)
        return str(path)

    def test_regress_pass(self, tmp_path):
        baseline = self._write(tmp_path / "base.json")
        current = self._write(tmp_path / "cur.json")
        report = run_regress(baseline, current_path=current)
        assert report.passed
        assert not report.diff.regressions

    def test_regress_fingerprint_divergence(self, tmp_path):
        baseline = self._write(tmp_path / "base.json")
        # A p99 move inside the noise threshold still changes the
        # simulated figures the fingerprint pins.
        current = self._write(tmp_path / "cur.json",
                              _chaos_bench(p99_ns=90001.0).record())
        report = run_regress(baseline, current_path=current)
        assert not report.diff.regressions
        assert not report.passed
        assert "fingerprint" in report.reason

    def test_regress_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ReproError):
            run_regress(tmp_path / "absent.json")

    def test_cli_exit_codes(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json")
        current = self._write(tmp_path / "cur.json")
        assert main(["regress", "--baseline", baseline,
                     "--current", current]) == 0
        # An exact metric moved (the fingerprint is left unchanged).
        perturbed = _chaos_bench().record()
        perturbed.metrics["chaos/monotonic_p99"] = 0.0
        bad = self._write(tmp_path / "bad.json", perturbed)
        assert main(["regress", "--baseline", bad,
                     "--current", current]) == 1
        assert main(["regress", "--baseline", str(tmp_path / "no.json"),
                     "--current", current]) == 2
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"speedup": 2.0, "entries": []}))
        assert main(["regress", "--baseline", str(foreign),
                     "--current", current]) == 2
        assert main(["regress", "--baseline", baseline,
                     "--current", str(foreign)]) == 2
        captured = capsys.readouterr()
        assert "REGRESS PASS" in captured.out
        assert "REGRESS FAIL" in captured.out
        assert "not a run record" in captured.err

    def test_cli_regress_json_verdict(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json")
        current = self._write(tmp_path / "cur.json")
        verdict = tmp_path / "verdict.json"
        assert main(["regress", "--baseline", baseline, "--current",
                     current, "--json", str(verdict)]) == 0
        capsys.readouterr()
        payload = json.loads(verdict.read_text())
        assert payload["passed"] is True
        assert payload["counts"]


# ------------------------------------------------------------ CLI verbs --


class TestHistoryAndDiffCli:
    def test_history_empty(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["history"]) == 0
        assert "no matching records" in capsys.readouterr().out

    def test_history_and_diff_round_trip(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        argv = ["simulate", "--config", "dram-only", "--workload",
                "arrayswap", "--dataset-pages", "2048",
                "--measurement-us", "200", "--seed", "5"]
        assert main(list(argv)) == 0
        assert main(list(argv)) == 0
        capsys.readouterr()
        assert main(["history", "--verb", "simulate", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert records[0]["verb"] == "simulate"
        # Identical-seed runs: zero regressions, fingerprints equal.
        assert main(["diff", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "fingerprints: EQUAL" in out
        assert "regression" not in out

    def test_diff_detects_regression(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        path = tmp_path / "ledger.jsonl"
        append_record(make_record(
            "simulate", metrics={"runner/service_p99_ns": 100.0}), path)
        append_record(make_record(
            "simulate", metrics={"runner/service_p99_ns": 200.0}), path)
        assert main(["diff", "0", "1"]) == 1
        assert "regression" in capsys.readouterr().out

    def test_diff_bad_selector_exits_2(self, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["diff", "0", "1"]) == 2
        foreign = tmp_path / "foreign.json"
        foreign.write_text("[1, 2]")
        assert main(["diff", str(foreign), str(foreign)]) == 2


# ------------------------------------------------------------ dashboard --


class _WellFormed(HTMLParser):
    """Minimal well-formedness check: every tag that opens closes."""

    VOID = {"meta", "br", "hr", "img", "input", "link", "path", "circle",
            "line", "rect", "polyline", "text", "title", "stop"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []

    def handle_starttag(self, tag, attrs):
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in self.VOID:
            return
        assert self.stack and self.stack[-1] == tag, \
            f"mismatched </{tag}> (open: {self.stack[-5:]})"
        self.stack.pop()


def _check_html(path):
    text = path.read_text()
    parser = _WellFormed()
    parser.feed(text)
    assert not parser.stack, f"unclosed tags: {parser.stack}"
    return text


CHAOS_PAYLOAD = {
    "experiment": "fig9", "scale": "quick", "workload": "tatp",
    "fault_seed": 1, "rber_points": [0.0, 8e-3],
    "presets": ["astriflash"], "monotonic_p99": True,
    "cells": [
        {"preset": "astriflash", "rber": 0.0, "failed": False,
         "throughput_jobs_per_s": 1000.0, "service_p99_ns": 50000.0,
         "service_mean_ns": 9000.0, "fault_counters": {}},
        {"preset": "astriflash", "rber": 8e-3, "failed": False,
         "throughput_jobs_per_s": 900.0, "service_p99_ns": 90000.0,
         "service_mean_ns": 12000.0,
         "fault_counters": {"flash.read_retries": 14.0}},
    ],
}

LOADGEN_PAYLOAD = {
    "experiment": "fig10", "scale": "quick", "workload": "tatp",
    "arrival": "poisson", "seed": 42, "slo_us": 500.0,
    "backlog_threshold": 0.05, "saturation_qps": 2000.0,
    "qps_points": [500.0, 1000.0], "presets": ["astriflash"],
    "rber": 0.0, "fault_seed": 1, "monotonic_p99": True,
    "knees": [{"preset": "astriflash", "sustained_qps": 1000.0,
               "sustained_fraction_of_dram": 0.5, "status": "ok",
               "evaluations": []}],
    "cells": [
        {"preset": "astriflash", "offered_qps": 500.0,
         "achieved_qps": 500.0, "completed_jobs": 100,
         "unfinished_jobs": 0, "backlog_fraction": 0.0,
         "censored": False, "p99_us": 120.0, "observed_p99_us": 120.0,
         "p99_lower_bound_us": None, "service_p99_us": 90.0,
         "response_mean_us": 40.0, "meets_slo": True},
        {"preset": "astriflash", "offered_qps": 1000.0,
         "achieved_qps": 980.0, "completed_jobs": 200,
         "unfinished_jobs": 30, "backlog_fraction": 0.13,
         "censored": True, "p99_us": None, "observed_p99_us": 300.0,
         "p99_lower_bound_us": 450.0, "service_p99_us": 95.0,
         "response_mean_us": 80.0, "meets_slo": False},
    ],
}

PROFILE_PAYLOAD = {
    "experiment": "fig9", "scale": "quick", "wall_seconds": 2.0,
    "total_calls": 100000, "events_executed": 50000,
    "events_per_second": 25000.0,
    "config_preset": "quick", "warm_wall_seconds": 0.0,
    "hotspots": [{"function": "repro/sim/engine.py:1(run)",
                  "calls": 1000, "total_s": 0.5, "cumulative_s": 1.5}],
}


def _typed_results():
    """One typed result per dashboard panel, built from the payloads."""
    from repro.loadgen.sweep import LOADGEN
    from repro.perf import Hotspot, ProfileReport

    return [
        _sweep_result(CHAOS, CHAOS_PAYLOAD, seed=1),
        _sweep_result(LOADGEN, LOADGEN_PAYLOAD, seed=42),
        ProfileReport(**dict(PROFILE_PAYLOAD, hotspots=[
            Hotspot(**spot) for spot in PROFILE_PAYLOAD["hotspots"]])),
    ]


class TestDashboard:
    def test_empty_ledger_renders(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        out = tmp_path / "report.html"
        assert main(["dashboard", "--out", str(out)]) == 0
        capsys.readouterr()
        text = _check_html(out)
        assert "Run ledger" in text
        assert "ledger is empty" in text
        assert "no profile ledger records" in text

    def test_renders_all_four_schemas(self, tmp_path, monkeypatch,
                                      capsys):
        """Every panel renders from the newest ledger record of its verb
        (chaos, loadgen, profile and simulate); nothing is read from
        the working directory."""
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        for result in _typed_results():
            append_record(result.record())
        append_record(make_record("simulate", preset="astriflash",
                                  metrics={"runner/service_p99_ns": 5e4}))
        out = tmp_path / "report.html"
        assert main(["dashboard", "--out", str(out)]) == 0
        capsys.readouterr()
        text = _check_html(out)
        for marker in ("Kernel throughput trajectory", "fig9 / quick",
                       "Chaos degradation", "Loadgen knee",
                       "Profile hotspots", "Run ledger", "<svg",
                       "repro/sim/engine.py:1(run)"):
            assert marker in text, marker
        # Self-contained: no external fetches.
        assert "http://" not in text and "https://" not in text
        assert "<script src" not in text

    def test_sparkline_and_chart_helpers(self):
        from repro.metrics.dashboard import svg_chart, svg_sparkline

        assert "<svg" in svg_sparkline([1.0, 2.0, 3.0])
        assert "no data" in svg_sparkline([])
        chart = svg_chart({"series": [(0.0, 1.0), (1.0, 2.0)]},
                          x_label="x", y_label="y")
        assert "<svg" in chart and "series" in chart

    def test_missing_out_dir_raises(self, tmp_path):
        with pytest.raises(ReproError):
            render_dashboard(tmp_path / "absent" / "report.html",
                             ledger=tmp_path / "ledger.jsonl")


# ------------------------------------------------------------ telemetry --


class TestTelemetryColumns:
    def test_new_columns_appended_after_stable_prefix(self):
        from repro.obs.telemetry import TELEMETRY_FIELDS

        stable = ("run", "time_us", "msr_occupancy", "runq_jobs",
                  "new_threads", "pending_threads", "dirty_ways",
                  "flash_inflight", "bc_queue_depth", "core_busy")
        assert TELEMETRY_FIELDS[:len(stable)] == stable
        for column in ("gc_blocked_fraction", "erase_count_max",
                       "erase_count_mean", "fault_stall_ns"):
            assert column in TELEMETRY_FIELDS

    def test_sampler_populates_flash_columns(self):
        from repro.config import make_config
        from repro.core import Runner
        from repro.obs.tracer import Tracer, disable, enable
        from repro.units import US
        from repro.workloads import make_workload

        config = make_config("astriflash", (
            ("num_cores", 1),
            ("scale.dataset_pages", 2048),
            ("scale.measurement_ns", 400 * US),
        ))
        workload = make_workload("arrayswap", 2048, seed=3)
        tracer = Tracer(telemetry_interval_ns=50 * US)
        enable(tracer)
        try:
            Runner(config, workload).run()
        finally:
            disable()
        assert tracer.telemetry_rows
        row = tracer.telemetry_rows[-1]
        for column in ("gc_blocked_fraction", "erase_count_max",
                       "erase_count_mean", "fault_stall_ns"):
            assert column in row
            assert math.isfinite(row[column])
