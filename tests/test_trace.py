"""Tests for trace capture, persistence, replay, and statistics."""

import io

import pytest

from repro.config import make_config
from repro.core import Runner
from repro.errors import WorkloadError
from repro.trace import (
    TraceRecorder,
    TraceWorkload,
    load_trace,
    trace_statistics,
)
from repro.units import US
from repro.workloads import make_workload


@pytest.fixture()
def recorded():
    workload = make_workload("arrayswap", 1024, seed=5, zipf_s=1.6)
    recorder = TraceRecorder(workload)
    recorder.record(500)
    return recorder


class TestTraceRecorder:
    def test_records_exact_count(self, recorded):
        assert len(recorded.steps) == 500

    def test_zero_steps_rejected(self):
        workload = make_workload("arrayswap", 1024, seed=5)
        with pytest.raises(WorkloadError):
            TraceRecorder(workload).record(0)

    def test_save_load_roundtrip(self, recorded, tmp_path):
        path = str(tmp_path / "trace.csv")
        written = recorded.save(path)
        assert written == 500
        steps = load_trace(path)
        assert len(steps) == 500
        for (compute_ns, page, is_write), loaded in zip(recorded.steps,
                                                        steps):
            loaded_compute_ns, loaded_page, loaded_is_write = loaded
            assert loaded_page == page
            assert loaded_is_write == is_write
            assert loaded_compute_ns == pytest.approx(compute_ns, abs=0.001)

    def test_save_to_stream(self, recorded):
        buffer = io.StringIO()
        recorded.save(buffer)
        buffer.seek(0)
        assert len(load_trace(buffer)) == 500

    def test_load_rejects_garbage(self):
        with pytest.raises(WorkloadError):
            load_trace(io.StringIO("not a trace\n1,2,3\n"))
        bad = io.StringIO("# repro-trace-v1: compute_ns,page,is_write\n1,2\n")
        with pytest.raises(WorkloadError):
            load_trace(bad)


class TestLoadTraceEdgeCases:
    HEADER = "# repro-trace-v1: compute_ns,page,is_write\n"

    def test_empty_file_reports_missing_header(self):
        with pytest.raises(WorkloadError, match="empty trace file"):
            load_trace(io.StringIO(""))

    def test_header_only_trace_loads_as_empty(self):
        assert load_trace(io.StringIO(self.HEADER)) == []

    def test_empty_recorder_round_trips(self):
        workload = make_workload("arrayswap", 128, seed=1)
        recorder = TraceRecorder(workload)
        buffer = io.StringIO()
        assert recorder.save(buffer) == 0
        buffer.seek(0)
        assert load_trace(buffer) == []

    def test_trailing_newlines_tolerated(self):
        buffer = io.StringIO(self.HEADER + "1.5,7,1\n\n\n")
        steps = load_trace(buffer)
        assert len(steps) == 1
        _, page, is_write = steps[0]
        assert page == 7 and is_write

    def test_mid_file_comments_skipped(self):
        buffer = io.StringIO(self.HEADER + "# a note\n1.0,2,0\n")
        assert len(load_trace(buffer)) == 1

    def test_wrong_field_count_names_line_number(self):
        buffer = io.StringIO(self.HEADER + "1.0,2,0\n1,2\n")
        with pytest.raises(WorkloadError, match="line 3"):
            load_trace(buffer)

    def test_non_numeric_field_names_line_number(self):
        buffer = io.StringIO(self.HEADER + "1.0,2,0\nxx,2,0\n")
        with pytest.raises(WorkloadError, match="line 3"):
            load_trace(buffer)

    def test_non_boolean_write_flag_rejected(self):
        buffer = io.StringIO(self.HEADER + "1.0,2,yes\n")
        with pytest.raises(WorkloadError, match="is_write"):
            load_trace(buffer)


class TestTraceWorkload:
    def test_replay_preserves_page_sequence(self, recorded):
        replay = TraceWorkload(recorded.steps, steps_per_job=10)
        job = replay.make_job()
        pages = []
        while True:
            step = next(job.steps, None)
            if step is None:
                break
            pages.append(step[1])
        assert pages == [page for _, page, _ in recorded.steps[:10]]

    def test_replay_wraps_around(self):
        steps = [(100.0, page, False) for page in range(5)]
        replay = TraceWorkload(steps, steps_per_job=3)
        seen = []
        for _ in range(4):
            job = replay.make_job()
            while True:
                step = next(job.steps, None)
                if step is None:
                    break
                seen.append(step[1])
        assert seen == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]

    def test_dataset_pages_inferred(self):
        steps = [(1.0, 7, False), (1.0, 99, True)]
        replay = TraceWorkload(steps)
        assert replay.dataset_pages == 100

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            TraceWorkload([])

    def test_replay_drives_the_simulator(self, recorded):
        replay = TraceWorkload(recorded.steps, steps_per_job=40,
                               dataset_pages=1024)
        config = make_config("astriflash")
        config.num_cores = 1
        config.scale.dataset_pages = 1024
        config.scale.warmup_ns = 200.0 * US
        config.scale.measurement_ns = 1_000.0 * US
        result = Runner(config, replay).run()
        assert result.completed_jobs > 0

    def test_from_file(self, recorded, tmp_path):
        path = str(tmp_path / "trace.csv")
        recorded.save(path)
        replay = TraceWorkload(load_trace(path), steps_per_job=5)
        _, page, _ = next(replay.make_job().steps)
        assert page == recorded.steps[0][1]


class TestTraceStatistics:
    def test_summary(self, recorded):
        stats = trace_statistics(recorded.steps)
        assert stats.num_steps == 500
        assert 0 < stats.distinct_pages <= 1024
        assert 0.0 <= stats.write_fraction <= 1.0
        assert stats.mean_compute_ns > 0
        # Zipfian trace: the hot decile carries disproportionate share.
        assert stats.top_decile_access_share > 0.15

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            trace_statistics([])
