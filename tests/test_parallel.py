"""Tests for the process-parallel harness and its stored results."""

import pytest

from repro import snapshot
from repro.harness import parallel
from repro.harness.common import HarnessScale
from repro.harness.parallel import (
    ParallelRunError,
    RunSpec,
    execute_spec,
    map_tasks,
    poisson,
    run_specs,
    spec_key,
)
from repro.perf import canonical_result_dict
from repro.workloads import arrival_from_spec

# Small enough that one run takes a fraction of a second.
TINY = HarnessScale(
    name="tiny", dataset_pages=2048, num_cores=1, warmup_us=100.0,
    measurement_us=600.0, zipf_s=1.8, workloads=("arrayswap",),
)


def tiny_spec(config_name="astriflash", **kwargs) -> RunSpec:
    kwargs.setdefault("seed", 7)
    return RunSpec(config_name, "arrayswap", TINY, **kwargs)


def result_fields(result) -> dict:
    # Wall-clock fields vary run to run (warm_source additionally
    # depends on whether a snapshot happened to exist); every simulated
    # statistic must still match bit-for-bit.
    return canonical_result_dict(result)


class TestSpecs:
    def test_spec_key_is_stable_and_content_addressed(self):
        assert spec_key(tiny_spec()) == spec_key(tiny_spec())
        assert spec_key(tiny_spec()) != spec_key(tiny_spec(seed=8))
        assert spec_key(tiny_spec()) != spec_key(
            tiny_spec(arrivals=poisson(1000.0, seed=8))
        )
        assert spec_key(tiny_spec()) != spec_key(
            tiny_spec(config_overrides=(("scale.dram_fraction", 0.05),))
        )

    def test_config_override_applies_dotted_paths(self):
        spec = tiny_spec(config_overrides=(
            ("ult.threads_per_core", 4),
            ("ult.pending_queue_limit", 4),
        ))
        result = execute_spec(spec)
        assert result.completed_jobs > 0

    def test_unknown_override_path_raises(self):
        from repro.config import make_config
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            parallel._apply_config_override(
                make_config("astriflash"), "scale.nope", 1
            )

    def test_unknown_arrival_spec_raises(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            arrival_from_spec(("uniform", 1.0))


class TestDeterminism:
    def test_parallel_results_bit_identical_to_serial(self):
        specs = [tiny_spec("astriflash"), tiny_spec("flash-sync")]
        serial = run_specs(specs, jobs=1, cache=False)
        fanned = run_specs(specs, jobs=2, cache=False)
        for a, b in zip(serial, fanned):
            assert result_fields(a) == result_fields(b)

    def test_run_twice_identical(self):
        spec = tiny_spec()
        first = run_specs([spec], jobs=1, cache=False)[0]
        second = run_specs([spec], jobs=1, cache=False)[0]
        assert result_fields(first) == result_fields(second)


class TestCache:
    def test_hit_after_store(self, tmp_path):
        spec = tiny_spec()
        report = {}
        first = run_specs([spec], jobs=1, cache=True, snapshot_dir=tmp_path,
                          report=report)[0]
        assert report == {"cache_hits": 0, "executed": 1, "retried": 0,
                          "jobs": 1}
        second = run_specs([spec], jobs=1, cache=True,
                           snapshot_dir=tmp_path, report=report)[0]
        assert report["cache_hits"] == 1 and report["executed"] == 0
        assert result_fields(first) == result_fields(second)

    def test_source_stamp_invalidates(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        run_specs([spec], jobs=1, cache=True, snapshot_dir=tmp_path)
        snapshot.SnapshotStore.clear_memo()
        # Simulate a stored result from an older simulator version.
        monkeypatch.setattr(snapshot, "source_digest", lambda: "deadbeef")
        report = {}
        run_specs([spec], jobs=1, cache=True, snapshot_dir=tmp_path,
                  report=report)
        assert report["cache_hits"] == 0 and report["executed"] == 1

    def test_corrupt_entry_is_dropped(self, tmp_path):
        spec = tiny_spec()
        run_specs([spec], jobs=1, cache=True, snapshot_dir=tmp_path)
        snapshot.SnapshotStore.clear_memo()
        entry = tmp_path / f"result-{spec_key(spec)}.snap"
        entry.write_bytes(b"not a pickle")
        report = {}
        result = run_specs([spec], jobs=1, cache=True,
                           snapshot_dir=tmp_path, report=report)[0]
        assert report["executed"] == 1
        assert result.completed_jobs > 0

    def test_cache_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        report = {}
        run_specs([tiny_spec()], jobs=1, snapshot_dir=tmp_path,
                  report=report)
        assert report["cache_hits"] == 0
        assert not list(tmp_path.glob("result-*"))

    def test_results_and_snapshots_share_one_directory(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
        monkeypatch.delenv("REPRO_SNAPSHOT", raising=False)
        run_specs([tiny_spec()], jobs=1, cache=True)
        for kind in ("result", "workload", "warm"):
            assert len(list(tmp_path.glob(f"{kind}-*.snap"))) == 1, kind


class TestFailurePaths:
    def test_bad_spec_raises_structured_error(self):
        spec = RunSpec("astriflash", "no-such-workload", TINY)
        with pytest.raises(ParallelRunError) as excinfo:
            run_specs([spec], jobs=1, cache=False)
        assert excinfo.value.spec is spec

    def test_flaky_spec_retried_once(self, monkeypatch):
        spec = tiny_spec()
        real = parallel.execute_spec
        calls = {"n": 0}

        def flaky(s, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("simulated worker crash")
            return real(s, **kwargs)

        monkeypatch.setattr(parallel, "execute_spec", flaky)
        report = {}
        result = run_specs([spec], jobs=1, cache=False, report=report)[0]
        assert report["retried"] == 1
        assert result.completed_jobs > 0

    def test_failed_spec_comes_back_as_none(self):
        bad = tiny_spec(config_overrides=(("scale.nope", 1),))
        good, failed = parallel.run_specs_or_none([tiny_spec(), bad], jobs=1)
        assert good.completed_jobs > 0
        assert failed is None

    def test_pool_unavailable_falls_back_in_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "_run_in_pool",
                            lambda *args, **kwargs: None)
        results = run_specs([tiny_spec(), tiny_spec(seed=8)], jobs=4,
                            cache=False)
        assert all(r.completed_jobs > 0 for r in results)


def _square(value):
    return value * value


class TestMapTasks:
    def test_in_process(self):
        assert map_tasks(_square, [{"value": v} for v in (1, 2, 3)],
                         jobs=1) == [1, 4, 9]

    def test_fanned_out(self):
        assert map_tasks(_square, [{"value": v} for v in (1, 2, 3, 4)],
                         jobs=2) == [1, 4, 9, 16]

    def test_failure_is_structured(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            map_tasks(_square, [{"value": "x"}], jobs=1)


class TestExperimentWiring:
    """jobs= plumbs through every experiment entry point."""

    def test_run_experiment_accepts_jobs(self):
        from repro.harness import run_experiment
        result = run_experiment("fig2", jobs=2)
        assert result.rows

    def test_report_generate_accepts_jobs(self, tmp_path):
        from repro.harness import EXPERIMENTS
        from repro.harness.report import generate
        cheap = {name: EXPERIMENTS[name] for name in ("table1", "fig3")}
        out = tmp_path / "report.txt"
        results = generate(cheap, scale="quick", jobs=2, out=str(out))
        assert len(results) == 2
        assert "Table I" in out.read_text()
