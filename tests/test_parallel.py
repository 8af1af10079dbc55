"""Tests for the process-parallel harness and its stored results."""

import pytest

from repro import snapshot
from repro.core.runner import wall_split_totals
from repro.errors import ConfigurationError
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
from repro.harness.sweep import Gate, Sweep, run_sweep
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
        from repro.config import derive, make_config
        overrides = (
            ("ult.threads_per_core", 4),
            ("ult.pending_queue_limit", 8),
            ("ult.pending_queue_limit", 4),  # the later pair wins
        )
        config = derive(make_config("astriflash"), overrides)
        assert config.ult.threads_per_core == 4
        assert config.ult.pending_queue_limit == 4
        result = execute_spec(tiny_spec(config_overrides=overrides))
        assert result.completed_jobs > 0

    def test_unknown_override_path_raises(self):
        from repro.config import derive, make_config
        from repro.errors import ConfigurationError
        for path in ("scale.nope", "nope", "num_cores.nope"):
            with pytest.raises(ConfigurationError,
                               match=f"config override '{path}': "
                                     "no such field"):
                derive(make_config("astriflash"), ((path, 1),))

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


def store_counts() -> tuple:
    """The store's ``(results_reused, stale_rejected)`` counters."""
    counts = snapshot.summary()
    return (counts.get("results_reused", 0.0),
            counts.get("stale_rejected", 0.0))


class TestCache:
    def test_hit_after_store(self, tmp_path):
        spec = tiny_spec()
        reused, stale = store_counts()
        first = run_specs([spec], jobs=1, cache=True,
                          snapshot_dir=tmp_path)[0]
        assert store_counts() == (reused, stale)
        second = run_specs([spec], jobs=1, cache=True,
                           snapshot_dir=tmp_path)[0]
        assert store_counts() == (reused + 1, stale)
        assert result_fields(first) == result_fields(second)

    def test_source_stamp_invalidates(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        run_specs([spec], jobs=1, cache=True, snapshot_dir=tmp_path)
        # Simulate a stored result from an older simulator version.
        monkeypatch.setattr(snapshot, "source_digest", lambda: "deadbeef")
        reused, stale = store_counts()
        run_specs([spec], jobs=1, cache=True, snapshot_dir=tmp_path)
        assert store_counts() == (reused, stale + 1)

    def test_corrupt_entry_is_dropped(self, tmp_path):
        spec = tiny_spec()
        run_specs([spec], jobs=1, cache=True, snapshot_dir=tmp_path)
        entry = tmp_path / f"result-{spec_key(spec)}.snap"
        entry.write_bytes(b"not a pickle")
        reused, stale = store_counts()
        result = run_specs([spec], jobs=1, cache=True,
                           snapshot_dir=tmp_path)[0]
        assert store_counts() == (reused, stale + 1)
        assert result.completed_jobs > 0

    def test_cache_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        reused, _ = store_counts()
        run_specs([tiny_spec()], jobs=1, snapshot_dir=tmp_path)
        run_specs([tiny_spec()], jobs=1, snapshot_dir=tmp_path)
        assert store_counts()[0] == reused
        assert not list(tmp_path.glob("result-*"))

    def test_results_and_snapshots_share_one_directory(self, tmp_path,
                                                       monkeypatch):
        """The store directory holds the finished result only: the run
        captures its warm state in the process, not in a file."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        snapshot.clear_memo()
        before = wall_split_totals()["fresh_warms"]
        run_specs([tiny_spec()], jobs=1, cache=True)
        assert wall_split_totals()["fresh_warms"] == before + 1
        assert len(list(tmp_path.glob("result-*.snap"))) == 1
        assert len(list(tmp_path.iterdir())) == 1


def count_calls(monkeypatch) -> list:
    """Record every spec ``execute_spec`` runs in this process."""
    calls = []
    real = parallel.execute_spec

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(parallel, "execute_spec", counted)
    return calls


def failing_batch() -> list:
    """Three good one-core specs and, third, one whose config cannot
    be built."""
    return [tiny_spec(), tiny_spec("flash-sync"),
            tiny_spec(config_overrides=(("flash.pages_per_block", 0),)),
            tiny_spec(seed=8)]


def batch_sweep(specs) -> Sweep:
    """A one-preset sweep whose cells are ``specs``; a run that raised
    is a failed cell."""
    return Sweep(
        verb="batch", head=(), gate=Gate("ok", "jobs"), columns=(),
        metrics=(), labels=(), failed="run failed",
        about=(("presets", ["any"]),),
        points=tuple({"index": index} for index in range(len(specs))),
        spec=lambda preset, point: specs[point["index"]],
        read=lambda result: {
            "jobs": None if result is None else result.completed_jobs,
            "p99": None if result is None else result.service_p99_ns},
    )


class TestFailurePaths:
    def test_bad_spec_raises_structured_error(self):
        spec = RunSpec("astriflash", "no-such-workload", TINY)
        with pytest.raises(ParallelRunError) as excinfo:
            run_specs([spec], jobs=1, cache=False)
        assert excinfo.value.spec is spec

    def test_flaky_spec_retried_once(self, monkeypatch):
        """A call the pool lost (its worker died) runs again in-process,
        once; the calls the pool finished do not."""
        from concurrent.futures.process import BrokenProcessPool

        calls = count_calls(monkeypatch)

        def first_worker_died(func, items, jobs):
            return ([BrokenProcessPool("worker died")]
                    + [func(item) for item in items[1:]])

        monkeypatch.setattr(parallel, "_run_in_pool", first_worker_died)
        specs = [tiny_spec(), tiny_spec(seed=8)]
        results = run_specs(specs, jobs=2, cache=False)
        assert calls == [specs[1], specs[0]]
        assert [result_fields(r) for r in results] == \
            [result_fields(execute_spec(spec)) for spec in specs]

    def test_a_pool_call_that_raised_is_not_rerun(self, monkeypatch):
        calls = count_calls(monkeypatch)

        def first_call_raised(func, items, jobs):
            return ([RuntimeError("boom")]
                    + [func(item) for item in items[1:]])

        monkeypatch.setattr(parallel, "_run_in_pool", first_call_raised)
        specs = [tiny_spec(), tiny_spec(seed=8)]
        with pytest.raises(ParallelRunError) as excinfo:
            run_specs(specs, jobs=2, cache=False)
        assert calls == [specs[1]]
        assert excinfo.value.spec is specs[0]
        assert excinfo.value.results[0] is None
        assert excinfo.value.results[1].completed_jobs > 0

    def test_failed_spec_comes_back_as_none(self):
        bad = tiny_spec(config_overrides=(("scale.nope", 1),))
        with pytest.raises(ParallelRunError) as excinfo:
            run_specs([tiny_spec(), bad], jobs=1, cache=False)
        good, failed = excinfo.value.results
        assert good.completed_jobs > 0
        assert failed is None
        assert [spec for spec, _ in excinfo.value.failures] == [bad]

    def test_each_spec_of_a_failing_batch_runs_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        calls = count_calls(monkeypatch)
        specs = failing_batch()
        cells = run_sweep(batch_sweep(specs), jobs=1).cells
        assert len(calls) == 4
        assert [cell["failed"] for cell in cells] == \
            [False, False, True, False]

    def test_unbuildable_spec_fails_by_name_in_a_pool(self):
        specs = failing_batch()
        with pytest.raises(ParallelRunError) as excinfo:
            run_specs(specs, jobs=2, cache=False)
        error = excinfo.value
        assert error.spec is specs[2]
        assert [spec for spec, _ in error.failures] == [specs[2]]
        assert isinstance(error.cause, ConfigurationError)
        assert "pages_per_block" in str(error)
        assert error.results[2] is None
        assert [result_fields(error.results[i]) for i in (0, 1, 3)] == \
            [result_fields(execute_spec(specs[i])) for i in (0, 1, 3)]

    def test_failed_cells_match_at_any_job_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        sweep = batch_sweep(failing_batch())
        serial = run_sweep(sweep, jobs=1).cells
        assert run_sweep(sweep, jobs=2).cells == serial
        assert [cell["failed"] for cell in serial] == \
            [False, False, True, False]

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
