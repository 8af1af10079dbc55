"""Tests for the process-parallel harness."""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.harness import fig9, fig10, parallel, table2
from repro.harness.common import QUICK, HarnessScale
from repro.harness.parallel import (
    ParallelRunError,
    RunSpec,
    execute_spec,
    map_tasks,
    poisson,
    run_specs,
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

    def test_label_names_only_what_is_set(self):
        assert RunSpec("dram-only", "tatp", "quick").label() == \
            "dram-only/tatp@quick"
        spec = tiny_spec(arrivals=poisson(5000.0, seed=8),
                         workload_overrides=(("zipf_s", 1.5),),
                         config_overrides=(("num_cores", 2),))
        assert spec.label() == ("astriflash/arrayswap@tiny seed=7 "
                                "poisson gap=5000ns zipf_s=1.5 "
                                "num_cores=2")

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


class TestOneRunPath:
    """Every batch simulates; nothing is read from or written to
    disk."""

    def test_batch_leaves_working_directory_empty(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_specs([tiny_spec(), tiny_spec("flash-sync")], jobs=1)
        run_specs([tiny_spec()], jobs=1)
        assert list(tmp_path.iterdir()) == []

    def test_bench_call_writes_nothing(self, tmp_path, monkeypatch):
        """``bench/sweep.py``'s exact call runs and leaves both its
        directory and the working directory empty."""
        directory = tmp_path / "bench"
        directory.mkdir()
        monkeypatch.chdir(tmp_path)
        (result,) = run_specs([tiny_spec()], jobs=1, cache=False,
                              snapshots=True, snapshot_dir=directory)
        assert result_fields(result) == \
            result_fields(execute_spec(tiny_spec()))
        assert list(tmp_path.iterdir()) == [directory]
        assert list(directory.iterdir()) == []


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

    def test_failed_cells_match_at_any_job_count(self):
        sweep = batch_sweep(failing_batch())
        serial = run_sweep(sweep, jobs=1).cells
        assert run_sweep(sweep, jobs=2).cells == serial
        assert [cell["failed"] for cell in serial] == \
            [False, False, True, False]

    def test_error_tells_the_failed_spec_apart_from_its_batch(self):
        specs = failing_batch()
        assert len({spec.label() for spec in specs}) == len(specs)
        with pytest.raises(ParallelRunError,
                           match="flash.pages_per_block=0"):
            run_specs(specs, jobs=1, cache=False)

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
        results, _, _ = generate(cheap, scale="quick", jobs=2,
                                 out=str(out))
        assert len(results) == 2
        assert "Table I" in out.read_text()


class TestRunFigures:
    """Declared figures list their cells before anything simulates,
    and a verb's figures run each distinct spec once."""

    def test_run_all_simulates_each_distinct_run_once(self, monkeypatch):
        import repro.harness as harness

        calls = count_calls(monkeypatch)
        batches = []
        real = harness.run_specs

        def counted(specs, **kwargs):
            batches.append(list(specs))
            return real(specs, **kwargs)

        monkeypatch.setattr(harness, "run_specs", counted)
        harness.run_experiments(harness.EXPERIMENTS, scale="quick", jobs=1)
        anchor = RunSpec("dram-only", "tatp", QUICK)
        assert len(calls) == 33
        assert calls.count(anchor) == 1
        assert [len(batch) for batch in batches] == [1, 32]
        assert batches[0] == [anchor]

    def test_fig9_cells_are_listed_before_any_run(self, monkeypatch):
        calls = count_calls(monkeypatch)
        cells = fig9.FIGURE.cells(QUICK, 42, None)
        assert len(cells) == 15
        assert calls == []

    def test_open_loop_cells_carry_the_anchored_arrivals(self):
        rate = 123_456.0
        anchor = SimpleNamespace(throughput_jobs_per_s=rate)

        def arrivals(load):
            return poisson(QUICK.num_cores / (load * rate) * 1e9, seed=43)

        cells = fig10.FIGURE.cells(QUICK, 42, anchor)
        assert len(cells) == len(fig10.LOAD_POINTS) * len(fig10.CONFIGS)
        for (load, _), spec in cells.items():
            assert spec.arrivals == arrivals(load)
        for spec in table2.FIGURE.cells(QUICK, 42, anchor).values():
            assert spec.arrivals == arrivals(0.4)
