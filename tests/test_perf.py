"""Tests for the profiling subsystem (``python -m repro profile``)."""

import cProfile
import json
import os
import pstats

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.metrics import LEDGER_SCHEMA_VERSION, record_from_file, \
    write_record
from repro.perf import (
    Hotspot,
    ProfileReport,
    hotspots_from_stats,
    profile_experiment,
)
from repro.sim import Engine, vector
from repro.sim.engine import total_events_executed


def _burn(iterations: int) -> int:
    total = 0
    for index in range(iterations):
        total += index * index
    return total


class TestHotspotExtraction:
    def test_hotspots_ranked_by_internal_time(self):
        profiler = cProfile.Profile()
        profiler.enable()
        _burn(200_000)
        profiler.disable()
        spots = hotspots_from_stats(pstats.Stats(profiler), top=5)
        assert spots
        assert all(isinstance(spot, Hotspot) for spot in spots)
        # Sorted by tottime, descending.
        times = [spot.total_s for spot in spots]
        assert times == sorted(times, reverse=True)
        assert any("_burn" in spot.function for spot in spots)

    def test_top_limits_rows(self):
        profiler = cProfile.Profile()
        profiler.enable()
        _burn(1000)
        profiler.disable()
        spots = hotspots_from_stats(pstats.Stats(profiler), top=1)
        assert len(spots) == 1


class TestProfileReport:
    def _report(self):
        return ProfileReport(
            experiment="fig9", scale="quick", wall_seconds=1.5,
            total_calls=1234, events_executed=3000,
            events_per_second=2000.0,
            hotspots=[Hotspot("a.py:1(f)", 10, 0.5, 1.0)],
        )

    def test_format_text_mentions_throughput(self):
        text = self._report().format_text()
        assert "fig9" in text
        assert "2,000 events/s" in text
        assert "a.py:1(f)" in text

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "profile.json"
        record = self._report().record()
        write_record(record, path)
        assert record_from_file(path).to_dict() == record.to_dict()
        detail = json.loads(path.read_text())["detail"]
        assert detail["experiment"] == "fig9"
        assert detail["events_per_second"] == 2000.0
        assert detail["hotspots"][0]["function"] == "a.py:1(f)"

    def test_json_carries_schema_stamp(self, tmp_path):
        path = tmp_path / "profile.json"
        write_record(self._report().record(), path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == LEDGER_SCHEMA_VERSION
        assert data["verb"] == "profile"
        assert data["experiment"] == "fig9"
        assert "config_preset" in data["detail"]
        # Wall-clock figures are recorded, never gated.
        assert data["metrics"]["profile/events_per_second"] == 2000.0
        assert {policy["mode"] for policy in data["policies"].values()} \
            == {"info"}


class TestProfileExperiment:
    def test_unknown_experiment_raises(self):
        with pytest.raises(ReproError):
            profile_experiment("nope")

    def test_invalid_top_raises(self):
        with pytest.raises(ReproError):
            profile_experiment("table1", top=0)

    def test_profiles_static_experiment(self):
        report = profile_experiment("table1", top=5)
        assert report.experiment == "table1"
        assert report.scale == "quick"
        assert report.total_calls > 0
        assert report.wall_seconds >= 0.0
        assert len(report.hotspots) <= 5

    def test_report_is_stamped_with_config_preset(self):
        report = profile_experiment("table1", top=1)
        assert report.config_preset == "quick"
        assert report.record().preset == "quick"

    def test_cache_env_is_restored(self):
        saved = os.environ.get("REPRO_CACHE")
        os.environ["REPRO_CACHE"] = "1"
        try:
            profile_experiment("table1", top=3)
            assert os.environ["REPRO_CACHE"] == "1"
        finally:
            if saved is None:
                os.environ.pop("REPRO_CACHE", None)
            else:
                os.environ["REPRO_CACHE"] = saved


class TestCli:
    def test_profile_command_writes_json(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main(["profile", "table1", "--top", "3",
                     "--json", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "profile: table1" in captured
        record = record_from_file(out)
        assert record.verb == "profile"
        assert set(record.detail) >= {"experiment", "events_per_second",
                                      "hotspots"}
        assert main(["regress", "--baseline", str(out),
                     "--current", str(out)]) == 0


def test_total_events_executed_tracks_engine_runs():
    before = total_events_executed()
    engine = Engine()
    for index in range(25):
        engine.schedule(float(index), lambda: None)
    engine.run()
    assert total_events_executed() - before == 25


def test_profile_excludes_warm_wall(monkeypatch):
    """events/s must be computed over the kernel wall, not warm time."""
    import time as time_mod

    from repro.core import runner as runner_mod
    from repro.harness import EXPERIMENTS

    def fake_experiment(scale="quick", jobs=1):
        start = time_mod.perf_counter()
        while time_mod.perf_counter() - start < 0.02:
            pass
        runner_mod._WALL_TOTALS["warm_seconds"] += 0.02

    monkeypatch.setitem(EXPERIMENTS, "warmy", fake_experiment)
    report = profile_experiment("warmy", top=1)
    assert report.warm_wall_seconds == pytest.approx(0.02)
    assert report.wall_seconds < 0.02  # warm time subtracted out


def test_profile_env_is_restored(monkeypatch):
    """Stored results are off while profiling and restored after; the
    profile starts from empty dataset and warm-payload tables, so
    builds and first warm-ups show in it."""
    from repro import snapshot
    from repro.harness import EXPERIMENTS

    seen = {}

    def noop(scale, jobs):
        seen.update(cache=os.environ.get("REPRO_CACHE"),
                    datasets=len(snapshot._DATASETS),
                    warm=len(snapshot._WARM))

    monkeypatch.setitem(EXPERIMENTS, "noop", noop)
    monkeypatch.setenv("REPRO_CACHE", "1")
    snapshot.build_workload("tatp", 512, 3)
    monkeypatch.setitem(snapshot._WARM, "held", b"")
    profile_experiment("noop", top=1)
    assert seen == {"cache": "0", "datasets": 0, "warm": 0}
    assert os.environ["REPRO_CACHE"] == "1"


def test_vector_stats_keeps_the_keys_bench_reads():
    """bench/sweep.py sums these four run counts; every one is 0."""
    assert vector.stats() == {"fused_runs": 0, "job_epoch_runs": 0,
                              "open_loop_runs": 0, "multi_core_runs": 0}


def test_numpy_meets_declared_lower_bound():
    """pyproject declares numpy>=1.22 (the Zipfian sampler's
    ``default_rng`` Generator API)."""
    major, minor = (int(part) for part in
                    np.__version__.split(".")[:2])
    assert (major, minor) >= (1, 22)
