"""Tests for the fault-injection & resilience subsystem (repro.faults):
the ECC error math, the seeded FaultPlan, device-level retry/timeout/
degraded paths, BC reissue accounting, and the chaos-sweep harness."""

import copy
import dataclasses

import pytest

from repro import errors
from repro.config import DramCacheConfig, FaultConfig, FlashConfig, \
    SystemConfig, derive
from repro.dramcache import DramCache
from repro.errors import ConfigurationError, DeviceFailedError, \
    FlashTimeoutError, ProtocolError, ReproError
from repro.faults import FaultPlan, effective_rber, \
    page_failure_probability, poisson_tail
from repro.faults.chaos import CHAOS, fault_overrides
from repro.flash import FlashDevice
from repro.harness.sweep import SweepResult, parse_points
from repro.sim import Engine, spawn
from repro.units import US


def make_fault_config(**overrides) -> FaultConfig:
    return dataclasses.replace(FaultConfig(enabled=True), **overrides)


def make_plan(num_planes=8, **overrides) -> FaultPlan:
    return FaultPlan(make_fault_config(**overrides), num_planes)


def make_device(pages=256, faults=None, **flash_overrides):
    engine = Engine()
    config = dataclasses.replace(
        FlashConfig(channels=2, dies_per_channel=1, planes_per_die=2,
                    pages_per_block=8, overprovisioning=0.5),
        **flash_overrides,
    )
    device = FlashDevice(engine, config, pages, faults=faults)
    return engine, device


def read_one(engine, device, page=3):
    results = []

    def reader():
        request = yield device.read(page)
        results.append(request)

    spawn(engine, reader())
    engine.run()
    return results[0]


class TestErrorMath:
    def test_poisson_tail_zero_rate_has_no_mass(self):
        assert poisson_tail(5, 0.0) == 0.0

    def test_poisson_tail_underflow_guard(self):
        # exp(-800) underflows; the mass sits at ~800 +- 28, so any
        # realistic ECC threshold is deep below it.
        assert poisson_tail(40, 800.0) == 1.0
        assert poisson_tail(900, 800.0) == 0.0

    def test_poisson_tail_monotone_in_rate(self):
        low = poisson_tail(40, 30.0)
        high = poisson_tail(40, 50.0)
        assert 0.0 < low < high < 1.0

    def test_page_failure_waterfall(self):
        geometry = dict(codewords_per_page=4, codeword_bits=9216,
                        correctable_bits=40)
        assert page_failure_probability(0.0, **geometry) == 0.0
        below = page_failure_probability(1e-3, **geometry)
        above = page_failure_probability(8e-3, **geometry)
        assert below < 1e-6          # lambda ~ 9 against t = 40
        assert above > 0.99          # lambda ~ 74: past the waterfall
        assert page_failure_probability(0.5, **geometry) == 1.0

    def test_effective_rber_combines_wear_and_retry(self):
        rate = effective_rber(1e-3, erase_count=10, wear_rber_factor=0.1,
                              retry_round=2, retry_rber_scale=0.5)
        assert rate == pytest.approx(1e-3 * 2.0 * 0.25)


class TestFaultPlan:
    def test_same_seed_reproduces_the_fault_stream(self):
        knobs = dict(rber=8e-3, timeout_probability=0.05,
                     slow_plane_fraction=0.25, seed=99)
        first = make_plan(**knobs)
        second = make_plan(**knobs)
        for i in range(500):
            a = first.read_outcome(i % 8, i)
            b = second.read_outcome(i % 8, i)
            assert (a.sense_multiplier, a.retry_rounds, a.uncorrectable,
                    a.timeout_stall) == \
                   (b.sense_multiplier, b.retry_rounds, b.uncorrectable,
                    b.timeout_stall)

    def test_quiet_config_never_faults(self):
        plan = make_plan(rber=0.0, timeout_probability=0.0,
                         slow_plane_fraction=0.0)
        for i in range(200):
            outcome = plan.read_outcome(i % 8, i)
            assert (outcome.sense_multiplier, outcome.retry_rounds,
                    outcome.uncorrectable, outcome.timeout_stall) == \
                (1.0, 0, False, False)

    def test_slow_plane_topology_is_seed_deterministic(self):
        assert make_plan(slow_plane_fraction=1.0).slow_planes \
            == frozenset(range(8))
        assert make_plan(slow_plane_fraction=0.0).slow_planes == frozenset()
        drawn = make_plan(slow_plane_fraction=0.5, seed=7).slow_planes
        assert drawn == make_plan(slow_plane_fraction=0.5, seed=7).slow_planes

    def test_wear_raises_failure_probability(self):
        plan = make_plan(rber=3e-3, wear_rber_factor=0.5)
        assert plan.page_failure_probability(10, 0) \
            > plan.page_failure_probability(0, 0)

    def test_retry_rounds_lower_failure_probability(self):
        plan = make_plan(rber=5e-3)
        assert plan.page_failure_probability(0, 1) \
            < plan.page_failure_probability(0, 0)

    def test_consecutive_hard_faults_fail_the_plane(self):
        # The seeded stream is deterministic, so p = 0.999 draws are
        # repeatable timeouts, every run.
        plan = make_plan(timeout_probability=0.999,
                         plane_failure_threshold=3)
        for _ in range(3):
            plan.read_outcome(0, 0)
        assert plan.plane_failing(0)
        assert plan.failing_planes() == [0]

    def test_mark_plane_failing_is_noop_when_disabled(self):
        plan = make_plan(plane_failure_threshold=0)
        plan.mark_plane_failing(2)
        assert not plan.plane_failing(2)


class TestFaultConfig:
    def test_degraded_path_must_beat_the_bc_timeout(self):
        with pytest.raises(ConfigurationError):
            make_fault_config(degraded_read_multiplier=6.0,
                              bc_timeout_factor=6.0)
        # Disabling degraded mode lifts the constraint.
        make_fault_config(plane_failure_threshold=0,
                          degraded_read_multiplier=9.0,
                          bc_timeout_factor=6.0)
        # The multiplier alone breaks the rule; derive applies a
        # sub-config's pairs in one replace, so the check sees the
        # final values.
        with pytest.raises(ConfigurationError):
            derive(SystemConfig(), (("faults.degraded_read_multiplier", 8.0),))
        config = derive(SystemConfig(), (
            ("faults.degraded_read_multiplier", 8.0),
            ("faults.bc_timeout_factor", 9.0),
        ))
        assert config.faults.bc_timeout_factor == 9.0

    def test_probability_ranges_enforced(self):
        with pytest.raises(ConfigurationError):
            make_fault_config(rber=1.0)
        with pytest.raises(ConfigurationError):
            make_fault_config(timeout_probability=1.0)
        with pytest.raises(ConfigurationError):
            make_fault_config(slow_plane_multiplier=0.5)

    def test_system_config_carries_an_independent_fault_config(self):
        config = SystemConfig()
        clone = copy.deepcopy(config)
        assert clone.faults is not config.faults
        assert not clone.faults.enabled


class TestDeviceFaultPaths:
    def test_disabled_faults_build_no_plan(self):
        engine, device = make_device()
        assert device.faults is None
        engine2, device2 = make_device(faults=FaultConfig(enabled=False))
        assert device2.faults is None

    def test_transient_timeout_stalls_but_still_completes(self):
        engine, device = make_device(
            faults=make_fault_config(timeout_probability=0.999))
        request = read_one(engine, device)
        assert request.complete_time is not None
        assert not request.failed
        # Sense + 12x stall on a 50 us read.
        assert request.latency_ns >= 12 * 50.0 * US
        assert device.stats["timeout_stalls"] == 1

    def test_retry_recovers_a_first_sense_failure(self):
        # rber = 0.1 fails the first sense with probability 1 (lambda
        # ~ 920 against t = 40); one shifted-Vref round at scale 0.01
        # brings lambda to ~9, which always corrects.
        engine, device = make_device(
            faults=make_fault_config(rber=0.1, retry_rber_scale=0.01))
        request = read_one(engine, device)
        assert not request.failed
        assert device.stats["read_retries"] == 1
        assert device.stats["ecc_recovered_reads"] == 1
        # One retry costs sense * (1 + backoff): >= 2x the clean read.
        assert request.latency_ns >= 2 * 50.0 * US

    def test_uncorrectable_read_marks_the_request_failed(self):
        # Retry rounds that do not reduce the RBER can never correct.
        engine, device = make_device(
            faults=make_fault_config(rber=0.1, retry_rber_scale=1.0))
        request = read_one(engine, device)
        assert request.failed
        assert device.stats["uncorrectable_reads"] == 1

    def test_slow_plane_multiplies_sense_latency(self):
        engine, device = make_device(
            faults=make_fault_config(slow_plane_fraction=1.0,
                                     slow_plane_multiplier=3.0))
        request = read_one(engine, device)
        assert device.stats["slow_plane_reads"] == 1
        assert request.latency_ns >= 3 * 50.0 * US

    def test_failing_plane_serves_degraded_mirror_reads(self):
        engine, device = make_device(
            faults=make_fault_config(degraded_read_multiplier=4.0))
        plane = device.ftl.plane_of(3)
        device.faults.mark_plane_failing(plane)
        request = read_one(engine, device)
        assert not request.failed
        assert device.stats["degraded_reads"] == 1
        assert request.latency_ns >= 4 * 50.0 * US


def make_faulted_cache(fault_config, cache_pages=8, dataset_pages=512):
    engine = Engine()
    flash = FlashDevice(
        engine,
        FlashConfig(channels=2, dies_per_channel=1, planes_per_die=2,
                    pages_per_block=16, overprovisioning=0.5),
        dataset_pages,
        faults=fault_config,
    )
    cache = DramCache(engine, DramCacheConfig(), cache_pages, flash)
    return engine, cache, flash


class TestBcResilience:
    def test_timeout_reissues_onto_the_degraded_mirror(self):
        # Every attempt stalls 12x, the BC times out at 6x and
        # reissues; the first hard fault (threshold = 1) fails the
        # plane, so the reissue lands on the 4x degraded mirror and
        # the miss still installs.
        engine, cache, flash = make_faulted_cache(make_fault_config(
            timeout_probability=0.999, plane_failure_threshold=1))
        result = cache.access(40)
        assert not result.hit
        engine.run()
        assert cache.organization.installs == 1
        assert flash.stats["bc_timeouts"] >= 1
        assert flash.stats["bc_reissues"] >= 1
        assert flash.stats["degraded_reads"] >= 1
        # The reissues kept the one MSR entry, released at the install.
        assert flash.stats["reads"] == 1 + flash.stats["bc_reissues"]
        assert len(cache.backside.msr) == 0

    def test_reissue_cap_surfaces_device_failure(self):
        # Degraded mode off: every reissue times out again until the
        # cap trips.
        engine, cache, flash = make_faulted_cache(make_fault_config(
            timeout_probability=0.999, plane_failure_threshold=0,
            bc_max_reissues=1))
        cache.access(40)
        with pytest.raises(DeviceFailedError):
            engine.run()

    def test_flash_timeout_error_is_a_payload_not_a_raise(self):
        # The BC read-outcome race passes FlashTimeoutError instances
        # through signals; both resilience exceptions are ReproErrors.
        assert issubclass(FlashTimeoutError, ReproError)
        assert issubclass(DeviceFailedError, ReproError)


class TestErrorsModule:
    def test_all_names_resolve(self):
        for name in errors.__all__:
            assert isinstance(getattr(errors, name), type)

    def test_new_exceptions_are_exported(self):
        assert "FlashTimeoutError" in errors.__all__
        assert "DeviceFailedError" in errors.__all__


class TestGcBlockedFractionWindow:
    def test_window_scopes_out_warmup_stalls(self):
        engine, device = make_device()
        device.stats["requests"] += 8
        device.stats["requests_blocked_by_gc"] += 4
        assert device.gc.blocked_fraction() == pytest.approx(0.5)
        device.gc.start_measurement()
        assert device.gc.blocked_fraction() == 0.0
        device.stats["requests"] += 4
        device.stats["requests_blocked_by_gc"] += 1
        assert device.gc.blocked_fraction() == pytest.approx(0.25)


class TestMsrReissueAccounting:
    def test_note_reissue_requires_a_pending_entry(self):
        from repro.dramcache import MissStatusRow
        engine = Engine()
        msr = MissStatusRow(engine, 4)
        with pytest.raises(ProtocolError):
            msr.note_reissue(10)
        msr.allocate(10)
        # A reissue keeps the entry: the miss is still one miss.
        msr.note_reissue(10)
        assert len(msr) == 1
        msr.release(10)
        assert len(msr) == 0


class TestTracedFaultedRun:
    def test_fault_stall_is_charged_and_latency_reconstructs(self):
        # The tracer invariant — component sums reconstruct measured
        # service latency exactly — must survive the resilience paths,
        # with failed-attempt time landing in the new fault_stall
        # component.
        from repro.config import make_config
        from repro.core import Runner
        from repro.obs.tracer import Tracer, disable, enable
        from repro.workloads import make_workload

        config = make_config("astriflash", (
            ("num_cores", 2),
            ("scale.dataset_pages", 1024),
            ("scale.warmup_ns", 200.0 * US),
            ("scale.measurement_ns", 1_500.0 * US),
            ("faults.enabled", True),
            ("faults.rber", 8e-3),
            ("faults.timeout_probability", 0.02),
            ("faults.slow_plane_fraction", 0.25),
            ("faults.wear_rber_factor", 0.05),
        ))
        workload = make_workload("tatp", 1024, seed=7, zipf_s=1.6)
        tracer = Tracer()
        enable(tracer)
        try:
            result = Runner(config, workload).run()
        finally:
            disable()
        assert result.counters["flash.bc_timeouts"] > 0
        assert tracer.completed
        charged = 0.0
        for record in tracer.completed:
            measured = record.service_latency_ns
            if measured <= 0.0:
                continue
            error = abs(record.span_sum_ns() - measured) / measured
            assert error < 1e-6, (record, record.components())
            charged += record.fault_stall
        assert charged > 0.0


def parse_rber_sweep(text):
    return parse_points(text, "rber", "[0, 1)")


class TestChaosHarness:
    def test_parse_rber_sweep_sorts_and_dedups(self):
        assert parse_rber_sweep("8e-3, 0, 2e-3, 8e-3") == (0.0, 2e-3, 8e-3)

    def test_parse_rber_sweep_rejects_garbage(self):
        with pytest.raises(ReproError):
            parse_rber_sweep("not-a-number")
        with pytest.raises(ReproError):
            parse_rber_sweep("1.5")
        with pytest.raises(ReproError):
            parse_rber_sweep(" , ")

    def test_zero_rber_point_runs_with_faults_disabled(self):
        assert fault_overrides(0.0, fault_seed=1) == ()
        overrides = dict(fault_overrides(8e-3, fault_seed=17))
        assert overrides["faults.enabled"] is True
        assert overrides["faults.seed"] == 17
        assert overrides["faults.rber"] == 8e-3

    def _bench(self, p99s):
        """A one-preset chaos sweep; a ``None`` p99 is a failed cell."""
        rbers = [float(i) for i in range(len(p99s))]
        sweep = dataclasses.replace(
            CHAOS, points=tuple({"rber": rber} for rber in rbers),
            about=(("experiment", "fig9"), ("scale", "quick"),
                   ("workload", "tatp"), ("fault_seed", 1),
                   ("rber_points", rbers), ("presets", ["x"])), seed=1)
        cells = [{"preset": "x", "rber": rber, **CHAOS.read(None),
                  "service_p99_ns": p99, "failed": p99 is None}
                 for rber, p99 in zip(rbers, p99s)]
        return SweepResult(sweep, cells)

    def test_monotonic_check_detects_dips(self):
        assert self._bench([1.0, 2.0, 2.0, 3.0]).ok
        assert not self._bench([1.0, 3.0, 2.0]).ok

    def test_monotonic_check_skips_failed_cells(self):
        bench = self._bench([1.0, None, 2.0])
        bench.cells[1]["service_p99_ns"] = 99.0  # ignored: cell failed
        assert bench.ok

    def test_schema_version_is_stamped(self):
        from repro.metrics import LEDGER_SCHEMA_VERSION

        bench = self._bench([1.0, None])
        record = bench.record()
        assert record.schema_version == LEDGER_SCHEMA_VERSION
        assert record.verb == "chaos"
        assert record.detail["cells"][0]["service_p99_ns"] == 1.0
        assert record.policies["chaos/monotonic_p99"] == {"mode": "exact"}
        assert record.metrics["chaos/failed{preset=x,rber=1}"] == 1.0
        assert record.policies["chaos/failed{preset=x,rber=1}"] == \
            {"mode": "exact"}
        assert "chaos/service_p99_ns{preset=x,rber=1}" not in \
            record.metrics
        # The fingerprint pins every simulated figure.
        assert bench.record().fingerprint == record.fingerprint
        bench.cells[0]["service_p99_ns"] = 1.5
        assert bench.record().fingerprint != record.fingerprint

    def test_cli_json_is_a_record_that_regresses_clean(
            self, tmp_path, monkeypatch, capsys):
        import repro.faults.chaos
        from repro.cli import main
        from repro.metrics import record_from_file

        bench = self._bench([1.0, 2.0])
        monkeypatch.setattr(repro.faults.chaos, "run_chaos",
                            lambda *args, **kwargs: bench)
        out = tmp_path / "chaos.json"
        assert main(["chaos", "--json", str(out)]) == 0
        record = record_from_file(out)
        assert record.verb == "chaos"
        assert record.fingerprint == bench.record().fingerprint
        assert main(["regress", "--baseline", str(out),
                     "--current", str(out)]) == 0
