"""Tests for the observability subsystem (``repro.obs``).

Covers the four layers (DESIGN.md §4d) — tracer/record accounting,
Chrome trace-event export + validation, time-series telemetry, and
tail-latency attribution — plus the two system-level guarantees:
tracing leaves simulation results bit-identical, and per-request
component sums reconstruct measured service latency exactly.
"""

import csv
import io
import json

import pytest

from repro.config import make_config
from repro.core import Runner
from repro.obs import (
    COMPONENTS,
    RequestRecord,
    Tracer,
    active,
    attribute,
    disable,
    enable,
    export_chrome_trace,
    export_trace_events,
    format_attribution,
    validate_chrome_trace,
    validate_trace_events,
    write_telemetry_csv,
)
from repro.obs.telemetry import TELEMETRY_FIELDS, telemetry_fieldnames
from repro.units import US
from repro.workloads import make_workload


@pytest.fixture(autouse=True)
def _tracing_reset():
    """No test may leak an enabled tracer into the rest of the suite."""
    yield
    disable()


class FakeJob:
    def __init__(self, job_id, workload_name="wl", arrived_at=0.0,
                 misses=0):
        self.job_id = job_id
        self.workload_name = workload_name
        self.arrived_at = arrived_at
        self.misses = misses


class FakePayload:
    """Stands in for a MissRequest carrying flash timing stamps."""

    def __init__(self, issued, done):
        self.flash_issued_at = issued
        self.flash_done_at = done


# --------------------------------------------------------- charge_resume --


class TestChargeResume:
    def _record(self):
        return RequestRecord(0, "wl", "run", arrived_at=0.0, started_at=0.0)

    def test_decomposes_parked_interval_with_stamps(self):
        record = self._record()
        record.charge_resume(pending_since=100.0, data_ready_at=900.0,
                             run_start=1000.0, switch_ns=50.0,
                             payload=FakePayload(200.0, 800.0))
        assert record.msr_wait == pytest.approx(100.0)
        assert record.flash_read == pytest.approx(600.0)
        assert record.install_wait == pytest.approx(100.0)
        assert record.ready_wait == pytest.approx(50.0)
        assert record.switch == pytest.approx(50.0)
        # The decomposition partitions [pending_since, run_start] exactly.
        assert record.span_sum_ns() == pytest.approx(900.0)

    def test_stamps_clipped_into_parked_interval(self):
        # A coalesced miss can carry stamps from before this thread
        # parked (or after its data-ready notification); clipping keeps
        # the partition exact.
        record = self._record()
        record.charge_resume(pending_since=100.0, data_ready_at=900.0,
                             run_start=1000.0, switch_ns=50.0,
                             payload=FakePayload(50.0, 2000.0))
        assert record.msr_wait == 0.0
        assert record.install_wait == 0.0
        assert record.flash_read == pytest.approx(800.0)
        assert record.span_sum_ns() == pytest.approx(900.0)

    def test_no_payload_falls_back_to_flash_wait(self):
        # OS-swap faults have no MissRequest stamps.
        record = self._record()
        record.charge_resume(pending_since=100.0, data_ready_at=900.0,
                             run_start=1000.0, switch_ns=50.0, payload=None)
        assert record.flash_wait == pytest.approx(800.0)
        assert record.ready_wait == pytest.approx(50.0)
        assert record.msr_wait == 0.0 and record.flash_read == 0.0
        assert record.span_sum_ns() == pytest.approx(900.0)

    def test_unknown_data_ready_charges_whole_park(self):
        record = self._record()
        record.charge_resume(pending_since=100.0, data_ready_at=None,
                             run_start=1000.0, switch_ns=50.0, payload=None)
        assert record.ready_wait == 0.0
        assert record.flash_wait == pytest.approx(850.0)
        assert record.span_sum_ns() == pytest.approx(900.0)

    def test_span_list_is_bounded_but_components_stay_exact(self):
        record = self._record()
        for index in range(RequestRecord.MAX_SPANS + 50):
            record.add_span("compute", float(index), float(index + 1))
            record.compute += 1.0
        assert len(record.spans) == RequestRecord.MAX_SPANS
        assert record.compute == RequestRecord.MAX_SPANS + 50

    def test_derived_quantities(self):
        record = RequestRecord(3, "wl", "run", arrived_at=10.0,
                               started_at=40.0)
        with pytest.raises(ValueError):
            record.service_latency_ns
        record.finished_at = 140.0
        record.compute = 100.0
        assert record.service_latency_ns == pytest.approx(100.0)
        assert record.span_sum_ns() == pytest.approx(
            record.service_latency_ns)
        assert set(record.components()) == set(COMPONENTS)


# ----------------------------------------------------------------- tracer --


class TestTracer:
    def test_tracing_disabled_by_default(self):
        disable()
        assert active() is None

    def test_enable_installs_and_disable_removes(self):
        tracer = Tracer()
        enable(tracer)
        assert active() is tracer
        disable()
        assert active() is None

    def test_sample_every_filters_by_job_id(self):
        tracer = Tracer(sample_every=3)
        sampled = [job_id for job_id in range(9)
                   if tracer.start_request(FakeJob(job_id), 0.0) is not None]
        assert sampled == [0, 3, 6]
        assert tracer.requests_seen == 9

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)

    def test_finish_unsampled_request_is_noop(self):
        tracer = Tracer(sample_every=2)
        tracer.start_request(FakeJob(1), 0.0)  # 1 % 2 != 0: unsampled
        tracer.finish_request(FakeJob(1), 50.0)
        assert tracer.completed == []

    def test_max_requests_counts_overflow(self):
        tracer = Tracer(max_requests=1, sample_every=1)
        for job_id in (0, 1):
            job = FakeJob(job_id)
            tracer.start_request(job, 0.0)
            tracer.finish_request(job, 10.0)
        assert len(tracer.completed) == 1
        assert tracer.dropped_requests == 1

    def test_event_budget_keeps_slices_matched(self):
        tracer = Tracer(max_events=3, telemetry_interval_ns=0.0)
        tracer.begin_run("r")
        tracer.push("core0", "a", 0.0)
        tracer.complete("core0", "x", 1.0, 2.0)
        tracer.push("core0", "b", 3.0)   # hits the budget boundary
        tracer.push("core0", "c", 4.0)   # over budget: dropped B
        tracer.pop("core0", 5.0)         # matching E dropped too
        tracer.pop("core0", 6.0)
        tracer.pop("core0", 7.0)
        assert tracer.dropped_events == 2
        assert validate_trace_events(export_trace_events(tracer)) == []

    def test_unbalanced_pop_is_ignored(self):
        tracer = Tracer()
        tracer.begin_run("r")
        tracer.pop("core0", 1.0)  # nothing open
        assert tracer.events == []

    def test_end_run_closes_open_slices(self):
        tracer = Tracer()
        tracer.begin_run("r")
        tracer.push("core0", "job", 10.0)
        tracer.push("core1", "job", 20.0)
        tracer.end_run(99.0)
        events = export_trace_events(tracer)
        assert validate_trace_events(events) == []
        closes = [e for e in events if e["ph"] == "E"]
        assert len(closes) == 2
        assert all(e["args"]["truncated"] for e in closes)

    def test_finished_request_emits_async_pair(self):
        tracer = Tracer()
        tracer.begin_run("r")
        job = FakeJob(0, workload_name="tatp", misses=2)
        tracer.start_request(job, 5.0)
        record = tracer.lookup(0)
        record.compute = 10.0
        tracer.finish_request(job, 25.0)
        events = export_trace_events(tracer)
        assert validate_trace_events(events) == []
        pair = [e for e in events if e["ph"] in ("b", "e")]
        assert [e["ph"] for e in pair] == ["b", "e"]
        assert pair[0]["id"] == pair[1]["id"] == "tatp#0"
        assert record.misses == 2
        assert tracer.summary()["requests_traced"] == 1

    def test_begin_run_isolates_job_ids(self):
        tracer = Tracer()
        tracer.begin_run("first")
        tracer.start_request(FakeJob(0), 0.0)
        tracer.begin_run("second")
        # Job ids restart per run; the stale record must not resolve.
        assert tracer.lookup(0) is None
        assert tracer.current_run == "second"


# ----------------------------------------------------------------- export --


class TestChromeExport:
    def _small_tracer(self):
        tracer = Tracer(telemetry_interval_ns=0.0)
        tracer.begin_run("cfg/wl")
        tracer.push("core0", "job#0", 100.0, {"job": 0})
        tracer.instant("core0", "miss", 180.0, {"page": 7})
        tracer.complete("flash0", "read", 150.0, 250.0, {"page": 7})
        tracer.counter("msr", 200.0, 4.0)
        tracer.pop("core0", 300.0)
        return tracer

    def test_small_trace_validates(self):
        events = export_trace_events(self._small_tracer())
        assert validate_trace_events(events) == []

    def test_metadata_names_processes_and_threads(self):
        events = export_trace_events(self._small_tracer())
        meta = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert "cfg/wl" in meta
        assert {"core0", "flash0", "counters"} <= set(meta)

    def test_timestamps_are_microseconds_and_sorted(self):
        events = export_trace_events(self._small_tracer())
        body = [e for e in events if e["ph"] != "M"]
        timestamps = [e["ts"] for e in body]
        assert timestamps == sorted(timestamps)
        assert timestamps[0] == pytest.approx(0.1)  # 100 ns
        complete = next(e for e in body if e["ph"] == "X")
        assert complete["dur"] == pytest.approx(0.1)  # 100 ns span

    def test_track_display_order_is_numeric_aware(self):
        tracer = Tracer(telemetry_interval_ns=0.0)
        tracer.begin_run("r")
        for track in ("core10", "bc", "core2", "flash0"):
            tracer.instant(track, "tick", 1.0)
        events = export_trace_events(tracer)
        threads = [e["args"]["name"] for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"]
        assert threads == ["core2", "core10", "flash0", "bc"]

    def test_full_document_shape(self):
        document = export_chrome_trace(self._small_tracer())
        assert validate_chrome_trace(document) == []
        assert document["otherData"]["runs"] == ["cfg/wl"]
        json.dumps(document)  # must be serializable as-is

    def test_empty_tracer_exports_empty_valid_trace(self):
        document = export_chrome_trace(Tracer())
        assert validate_chrome_trace(document) == []
        assert document["traceEvents"] == []


class TestTraceValidatorNegatives:
    def test_unknown_phase(self):
        problems = validate_trace_events(
            [{"ph": "Q", "pid": 1, "tid": 1, "ts": 0.0}])
        assert any("unknown phase" in p for p in problems)

    def test_missing_pid(self):
        problems = validate_trace_events([{"ph": "B", "tid": 1, "ts": 0.0}])
        assert any("missing pid/tid" in p for p in problems)

    def test_missing_ts(self):
        problems = validate_trace_events([{"ph": "i", "pid": 1, "tid": 1}])
        assert any("missing ts" in p for p in problems)

    def test_decreasing_timestamps(self):
        events = [
            {"ph": "i", "pid": 1, "tid": 1, "ts": 5.0},
            {"ph": "i", "pid": 1, "tid": 1, "ts": 3.0},
        ]
        assert any("decreases" in p for p in validate_trace_events(events))

    def test_end_without_begin(self):
        problems = validate_trace_events(
            [{"ph": "E", "pid": 1, "tid": 1, "ts": 0.0}])
        assert any("E without open B" in p for p in problems)

    def test_unclosed_begin(self):
        problems = validate_trace_events(
            [{"ph": "B", "pid": 1, "tid": 1, "ts": 0.0, "name": "x"}])
        assert any("unclosed B" in p for p in problems)

    def test_negative_complete_duration(self):
        problems = validate_trace_events(
            [{"ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": -1.0}])
        assert any("negative X duration" in p for p in problems)

    def test_async_end_without_begin(self):
        problems = validate_trace_events(
            [{"ph": "e", "pid": 1, "tid": 1, "ts": 0.0,
              "cat": "request", "id": "x"}])
        assert any("async e without b" in p for p in problems)

    def test_unclosed_async_begin(self):
        problems = validate_trace_events(
            [{"ph": "b", "pid": 1, "tid": 1, "ts": 0.0,
              "cat": "request", "id": "x"}])
        assert any("unclosed async span" in p for p in problems)

    def test_document_without_event_list(self):
        assert validate_chrome_trace({}) == [
            "document has no traceEvents list"]


# ------------------------------------------------------------ attribution --


def _finished_record(run, job_id, latency_ns, **components):
    record = RequestRecord(job_id, "wl", run, arrived_at=0.0,
                           started_at=0.0)
    record.finished_at = latency_ns
    for name, value in components.items():
        setattr(record, name, value)
    return record


class TestAttribution:
    def test_buckets_partition_the_population(self):
        records = [_finished_record("r", i, float(i + 1) * US,
                                    compute=float(i + 1) * US)
                   for i in range(100)]
        (result,) = attribute(records)
        assert result.count == 100
        assert [b.count for b in result.buckets] == [50, 40, 9, 1]
        assert sum(b.count for b in result.buckets) == 100
        assert result.worst_coverage_error == 0.0
        # Single-component records: compute carries 100% of each band.
        for bucket in result.buckets:
            assert bucket.share("compute") == pytest.approx(1.0)
        assert result.bucket("p99-p100").mean_latency_ns == \
            pytest.approx(100.0 * US)

    def test_coverage_error_reports_worst_mismatch(self):
        good = _finished_record("r", 0, 100.0, compute=100.0)
        bad = _finished_record("r", 1, 200.0, compute=190.0)  # 5% short
        (result,) = attribute([good, bad])
        assert result.worst_coverage_error == pytest.approx(0.05)

    def test_unfinished_records_are_skipped(self):
        open_record = RequestRecord(0, "wl", "r", 0.0, 0.0)
        assert attribute([open_record]) == []

    def test_runs_reported_separately_and_sorted(self):
        records = [_finished_record("b-run", 0, 10.0, compute=10.0),
                   _finished_record("a-run", 0, 10.0, compute=10.0)]
        results = attribute(records)
        assert [r.run for r in results] == ["a-run", "b-run"]

    def test_format_mentions_runs_buckets_and_components(self):
        records = [_finished_record("cfg/wl", i, float(i + 1) * US,
                                    compute=float(i + 1) * US)
                   for i in range(100)]
        text = format_attribution(attribute(records))
        assert "cfg/wl" in text
        assert "p99-p100" in text
        assert "compute" in text
        # Inactive components stay out of the table.
        assert "flash_read" not in text

    def test_format_empty(self):
        assert "no sampled requests" in format_attribution([])


# ------------------------------------------------- traced simulation runs --


def _simulate(config_name, workload_name="tatp", tracer=None, seed=7):
    """One small two-core run, optionally traced."""
    config = make_config(config_name, (
        ("num_cores", 2),
        ("scale.dataset_pages", 1024),
        ("scale.warmup_ns", 200.0 * US),
        ("scale.measurement_ns", 1_500.0 * US),
    ))
    workload = make_workload(workload_name, 1024, seed=seed, zipf_s=1.6)
    if tracer is None:
        return Runner(config, workload).run()
    enable(tracer)
    try:
        return Runner(config, workload).run()
    finally:
        disable()


RESULT_FIELDS = (
    "throughput_jobs_per_s", "completed_jobs", "service_p50_ns",
    "service_p99_ns", "service_mean_ns", "response_p99_ns",
    "response_mean_ns", "miss_ratio", "core_busy_fraction",
)

ALL_MODES = ("dram-only", "astriflash", "flash-sync", "os-swap")

# Every mode traced fully (sample_every=1) and partially (every third
# job): sampled and unsampled jobs share one job loop, so partial
# sampling is where a stale trace record would leak between jobs.
SAMPLING = pytest.mark.parametrize(
    "config_name,sample_every",
    [(mode, 1) for mode in ALL_MODES] + [(mode, 3) for mode in ALL_MODES],
    ids=list(ALL_MODES) + [f"{mode}-sampled" for mode in ALL_MODES],
)


class TestTracedSimulation:
    @SAMPLING
    def test_tracing_leaves_results_bit_identical(self, config_name,
                                                  sample_every):
        baseline = _simulate(config_name)
        traced = _simulate(config_name,
                           tracer=Tracer(sample_every=sample_every))
        for name in RESULT_FIELDS:
            assert getattr(traced, name) == getattr(baseline, name), name
        # Engine counters shift (telemetry events retire on the same
        # engine); everything model-level must match exactly.
        base_counters = {k: v for k, v in baseline.counters.items()
                         if not k.startswith("engine.")}
        traced_counters = {k: v for k, v in traced.counters.items()
                           if not k.startswith("engine.")}
        assert traced_counters == base_counters

    @SAMPLING
    def test_component_sums_reconstruct_service_latency(self, config_name,
                                                        sample_every):
        tracer = Tracer(sample_every=sample_every)
        _simulate(config_name, tracer=tracer)
        assert tracer.completed
        assert all(r.job_id % sample_every == 0 for r in tracer.completed)
        for record in tracer.completed:
            measured = record.service_latency_ns
            if measured <= 0.0:
                continue
            error = abs(record.span_sum_ns() - measured) / measured
            assert error < 1e-6, (record, record.components())

    def test_exported_trace_validates(self):
        tracer = Tracer()
        _simulate("astriflash", tracer=tracer)
        document = export_chrome_trace(tracer)
        assert validate_chrome_trace(document) == []
        assert len(document["traceEvents"]) > 0

    def test_partially_sampled_trace_validates(self):
        """Core-track slices open and close only for sampled jobs, so
        a partially sampled multiplexed run still exports balanced."""
        tracer = Tracer(sample_every=3)
        _simulate("astriflash", tracer=tracer)
        assert tracer.requests_seen > len(tracer.completed) > 0
        document = export_chrome_trace(tracer)
        assert validate_chrome_trace(document) == []
        slices = [event for event in document["traceEvents"]
                  if event.get("ph") == "B"]
        assert slices
        assert all(int(event["name"].rsplit("#", 1)[1]) % 3 == 0
                   for event in slices)

    def test_miss_components_appear_in_astriflash_tail(self):
        tracer = Tracer()
        _simulate("astriflash", tracer=tracer)
        missed = [r for r in tracer.completed if r.misses > 0]
        assert missed
        assert any(r.flash_read > 0.0 for r in missed)
        # AstriFlash parks threads; nothing should use the OS-swap
        # fallback bucket.
        assert all(r.flash_wait == 0.0 for r in tracer.completed)

    def test_sync_modes_charge_their_signature_components(self):
        sync_tracer = Tracer()
        _simulate("flash-sync", tracer=sync_tracer)
        assert any(r.sync_wait > 0.0 for r in sync_tracer.completed)
        swap_tracer = Tracer()
        _simulate("os-swap", tracer=swap_tracer)
        assert any(r.flash_wait > 0.0 or r.sync_wait > 0.0
                   for r in swap_tracer.completed)

    def test_sampling_bounds_records(self):
        tracer = Tracer(sample_every=4)
        _simulate("astriflash", tracer=tracer)
        assert tracer.completed
        assert all(r.job_id % 4 == 0 for r in tracer.completed)
        assert tracer.requests_seen > len(tracer.completed)

    def test_attribution_of_real_run_meets_coverage_bar(self):
        tracer = Tracer()
        _simulate("astriflash", tracer=tracer)
        (result,) = attribute(tracer.completed)
        assert result.count == len(tracer.completed)
        assert result.worst_coverage_error < 0.01  # acceptance: within 1%
        assert result.buckets

    def test_telemetry_rows_sampled_on_schedule(self, tmp_path):
        tracer = Tracer(telemetry_interval_ns=10.0 * US)
        _simulate("astriflash", tracer=tracer)
        rows = tracer.telemetry_rows
        assert rows
        times = [row["time_us"] for row in rows]
        assert times == sorted(times)
        for field in TELEMETRY_FIELDS:
            assert field in rows[0]
        assert "core0_new" in rows[0] and "core1_pending" in rows[0]
        assert all(0.0 <= row["core_busy"] <= 1.0 for row in rows)

        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(rows, str(path))
        with open(path, newline="") as handle:
            loaded = list(csv.DictReader(handle))
        assert len(loaded) == len(rows)
        assert list(loaded[0])[:len(TELEMETRY_FIELDS)] == \
            list(TELEMETRY_FIELDS)

    def test_zero_interval_disables_telemetry(self):
        tracer = Tracer(telemetry_interval_ns=0.0)
        _simulate("astriflash", tracer=tracer)
        assert tracer.telemetry_rows == []


class TestTelemetryFieldnames:
    def test_aggregates_first_then_sorted_extras(self):
        rows = [{"run": "r", "time_us": 1.0, "core1_new": 0.0,
                 "core0_new": 1.0}]
        names = telemetry_fieldnames(rows)
        assert names[:len(TELEMETRY_FIELDS)] == list(TELEMETRY_FIELDS)
        assert names[len(TELEMETRY_FIELDS):] == ["core0_new", "core1_new"]

    def test_missing_columns_default_to_zero(self, tmp_path):
        rows = [{"run": "r", "time_us": 1.0, "core0_new": 2.0},
                {"run": "r", "time_us": 2.0}]  # second row lacks core0_new
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(rows, str(path))
        with open(path, newline="") as handle:
            loaded = list(csv.DictReader(handle))
        assert loaded[1]["core0_new"] == "0.0"


# --------------------------------------------------------- session helper --


class TestTraceExperimentHelper:
    def test_runs_in_process_with_the_tracer_on(self, monkeypatch):
        from repro.obs import trace_experiment

        seen = {}

        def fake_run_experiment(experiment, scale="quick", jobs=None):
            seen["jobs"] = jobs
            seen["tracer"] = active()
            return "result"

        import repro.harness as harness
        monkeypatch.setattr(harness, "run_experiment", fake_run_experiment)
        tracer, result = trace_experiment("fig9")
        assert result == "result"
        assert seen["jobs"] == 1         # in-process, or the trace is empty
        assert seen["tracer"] is tracer  # enabled around the run
        assert active() is None
