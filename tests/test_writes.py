"""Tests for the write-path subsystem (repro.writes): FTL write
amplification properties, the readiness sketch and admission policies,
gated device write counters, and the policy-sweep bench driver."""

import dataclasses
import random

import pytest

from repro.config import make_config
from repro.config.system import FlashConfig, WritesConfig
from repro.errors import ReproError
from repro.flash import FlashDevice
from repro.flash.ftl import PageMappingFtl
from repro.harness.common import QUICK
from repro.sim import Engine, spawn
from repro.writes import (
    ReadinessSketch,
    WritesBench,
    WritesCell,
    make_admission,
    parse_write_ratio_sweep,
    writes_overrides,
)
from repro.writes.bench import POLICY_ORDER, _check_policy_order, \
    writes_scale


def run_overwrites(ftl, pages):
    """Write a page stream, collecting whenever the plane is under
    pressure — the same order of operations the device model uses."""
    for page in pages:
        plane = ftl.plane_of(page)
        while ftl.gc_pressure(plane):
            if ftl.collect(plane) == (0, 0):
                break
        ftl.write(page)


def wa_of(ftl):
    host = ftl.stats.get("writes")
    return (host + ftl.stats.get("gc_migrated_pages")) / host


class TestFtlWriteAmplification:
    @pytest.mark.parametrize("seed", range(5))
    def test_wa_never_below_one(self, seed):
        ftl = PageMappingFtl(96, 4, 8, 0.6)
        rng = random.Random(seed)
        run_overwrites(ftl, [int(96 * rng.random() ** 2)
                             for _ in range(3000)])
        assert wa_of(ftl) >= 1.0

    def test_sequential_overwrite_with_abundant_op_is_wa_one(self):
        # Sequential rounds invalidate whole blocks in order, so every
        # GC victim is fully garbage: zero migrations, WA exactly 1.
        ftl = PageMappingFtl(32, 1, 8, 0.9)
        run_overwrites(ftl, [page for _ in range(6) for page in range(32)])
        assert wa_of(ftl) == pytest.approx(1.0)

    def test_wa_grows_as_overprovisioning_shrinks(self):
        amplifications = []
        for op in (0.9, 0.7, 0.55, 0.45):
            ftl = PageMappingFtl(64, 1, 8, op)
            rng = random.Random(1234)
            run_overwrites(ftl, [rng.randrange(64) for _ in range(2000)])
            amplifications.append(wa_of(ftl))
        assert amplifications == sorted(amplifications)
        assert amplifications[0] < amplifications[-1]

    def test_has_reclaimable_tracks_garbage(self):
        # 16 pages, one plane, 4 blocks of 4: after nine distinct
        # writes the plane is under pressure but every closed block is
        # fully valid — waiting on GC would be hopeless.
        ftl = PageMappingFtl(16, 1, 4, 0.0)
        for page in range(9):
            ftl.write(page)
        assert ftl.gc_pressure(0)
        assert not ftl.has_reclaimable(0)
        # One overwrite punches garbage into a closed block.
        ftl.write(0)
        assert ftl.has_reclaimable(0)
        migrated, erased = ftl.collect(0)
        assert erased == 1 and migrated == 3


class TestReadinessSketch:
    def test_same_seed_same_estimates(self):
        a = ReadinessSketch(rows=2, bits=8, window=1024, seed=7)
        b = ReadinessSketch(rows=2, bits=8, window=1024, seed=7)
        rng = random.Random(3)
        for _ in range(500):
            page = rng.randrange(4096)
            a.observe(page)
            b.observe(page)
        assert all(a.estimate(page) == b.estimate(page)
                   for page in range(4096))

    def test_estimate_upper_bounds_true_count(self):
        sketch = ReadinessSketch(rows=2, bits=12, window=4096, seed=1)
        for _ in range(3):
            sketch.observe(5)
        assert sketch.estimate(5) >= 3
        assert sketch.estimate(999) == 0

    def test_window_rollover_halves_counts(self):
        sketch = ReadinessSketch(rows=2, bits=12, window=8, seed=1)
        for _ in range(4):
            sketch.observe(1)
        assert sketch.estimate(1) == 4
        for page in (100, 101, 102, 103):
            sketch.observe(page)
        assert sketch.estimate(1) == 2


class TestAdmissionPolicies:
    def test_write_back_admits_everything(self):
        policy = make_admission(WritesConfig(enabled=True))
        assert policy.kind == "write-back"
        assert not policy.propagate_writes
        assert policy.admit_writeback(42)

    def test_write_through_propagates_and_elides_writebacks(self):
        policy = make_admission(
            WritesConfig(enabled=True, admission_policy="write-through"))
        assert policy.propagate_writes
        assert not policy.admit_writeback(42)

    def test_readiness_requires_k_reads(self):
        policy = make_admission(
            WritesConfig(enabled=True, admission_policy="readiness",
                         readiness_reads=2))
        assert not policy.admit_writeback(7)
        policy.observe_read(7)
        assert not policy.admit_writeback(7)
        policy.observe_read(7)
        assert policy.admit_writeback(7)

    def test_readiness_decisions_are_seeded(self):
        config = WritesConfig(enabled=True, admission_policy="readiness")
        a, b = make_admission(config), make_admission(config)
        rng = random.Random(11)
        pages = [rng.randrange(1 << 16) for _ in range(200)]
        for page in pages:
            a.observe_read(page)
            b.observe_read(page)
        assert [a.admit_writeback(page) for page in pages] \
            == [b.admit_writeback(page) for page in pages]


class TestDeviceWriteCounters:
    def _write_one(self, writes):
        engine = Engine()
        config = FlashConfig(channels=2, dies_per_channel=1,
                             planes_per_die=2, pages_per_block=8,
                             overprovisioning=0.5)
        device = FlashDevice(engine, config, 256, writes=writes)

        def writer():
            yield device.write(3)

        spawn(engine, writer())
        engine.run()
        return device

    def test_disabled_config_keeps_counters_invisible(self):
        device = self._write_one(WritesConfig(enabled=False))
        assert device.writes is None
        stats = device.stats.as_dict()
        assert "host_writes" not in stats
        assert "device_writes" not in stats

    def test_enabled_config_counts_host_and_device_writes(self):
        device = self._write_one(WritesConfig(enabled=True))
        assert device.writes is not None
        stats = device.stats.as_dict()
        assert stats["host_writes"] == 1
        assert stats["device_writes"] == 1

    def test_write_counters_scoped_to_measurement_window(self):
        device = self._write_one(WritesConfig(enabled=True))
        assert device.gc.write_window()["host_writes"] == 1
        device.gc.start_measurement()
        window = device.gc.write_window()
        assert window["host_writes"] == 0
        assert window["device_writes"] == 0
        assert window["wa_factor"] == 1.0


class TestSweepHelpers:
    def test_parse_write_ratio_sweep(self):
        assert parse_write_ratio_sweep("0.5,0.25,0.5") == (0.25, 0.5)
        assert parse_write_ratio_sweep("1.0") == (1.0,)

    @pytest.mark.parametrize("text", ["", "abc", "0", "-0.5", "1.5"])
    def test_parse_write_ratio_sweep_rejects(self, text):
        with pytest.raises(ReproError):
            parse_write_ratio_sweep(text)

    def test_writes_overrides_sets_policy(self):
        assert writes_overrides("readiness") == \
            (("writes.admission_policy", "readiness"),)

    def test_writes_overrides_rejects_unknown_policy(self):
        with pytest.raises(ReproError):
            writes_overrides("write-sometimes")

    def test_writes_scale_bounds_footprint(self):
        scale = writes_scale(QUICK)
        assert scale.name == "quick-writes"
        assert scale.dataset_pages <= 192
        assert scale.zipf_s <= 1.2

    def test_write_presets_enable_writes(self):
        for name in ("astriflash-writes", "flash-sync-writes"):
            config = make_config(name)
            assert config.writes.enabled
            assert config.flash.gc_policy == "tiny-tail"


def _order_bench(e2e_by_policy):
    cells = [
        WritesCell(preset="p", policy=policy, write_ratio=0.5,
                   flash_writes_per_app_write=value)
        for policy, value in e2e_by_policy.items()
    ]
    return WritesBench(
        experiment="kv", scale="quick", workload="kvstore", seed=42,
        write_ratio_points=[0.5], presets=["p"],
        policies=list(e2e_by_policy), cells=cells,
    )


class TestPolicyOrderCheck:
    def test_strictly_decreasing_order_passes(self):
        bench = _order_bench({"write-through": 0.9, "write-back": 0.5,
                              "readiness": 0.3})
        assert _check_policy_order(bench)

    def test_inverted_order_fails(self):
        bench = _order_bench({"write-through": 0.3, "write-back": 0.5,
                              "readiness": 0.9})
        assert not _check_policy_order(bench)

    def test_failed_cell_fails_the_check(self):
        bench = _order_bench({"write-through": 0.9, "write-back": 0.5})
        bench.cells[0] = dataclasses.replace(bench.cells[0], failed=True)
        assert not _check_policy_order(bench)

    def test_single_policy_vacuously_passes(self):
        bench = _order_bench({"write-back": 0.5})
        assert _check_policy_order(bench)

    def test_policy_order_covers_all_policies(self):
        assert set(POLICY_ORDER) == set(WritesConfig.POLICIES)


class TestRunWritesEndToEnd:
    @pytest.fixture(scope="class")
    def bench(self):
        from repro.writes import run_writes

        return run_writes(presets=("flash-sync-writes",),
                          write_ratios=(0.5,),
                          policies=("write-through", "readiness"))

    def test_cells_complete_and_measure_writes(self, bench):
        assert len(bench.cells) == 2
        for cell in bench.cells:
            assert not cell.failed
            assert cell.host_writes > 0
            assert cell.wa_factor >= 1.0

    def test_readiness_rejects_and_beats_write_through(self, bench):
        by_policy = {cell.policy: cell for cell in bench.cells}
        assert by_policy["readiness"].admission_rejects > 0
        assert by_policy["readiness"].flash_writes_per_app_write \
            < by_policy["write-through"].flash_writes_per_app_write
        assert bench.policy_order_ok

    def test_payload_projects_onto_metrics_registry(self, bench):
        record = bench.record()
        assert record.verb == "writes"
        assert "write_ratio_points" in record.detail
        assert record.metrics["writes/policy_order_ok"] == 1.0
        assert record.policies["writes/policy_order_ok"] == \
            {"mode": "exact"}
        labels = "policy=readiness,preset=flash-sync-writes,ratio=0.5"
        key = f"writes/admission_rejects{{{labels}}}"
        assert record.metrics[key] > 0
        assert record.policies[key] == {"mode": "exact"}
        assert record.policies[f"writes/failed{{{labels}}}"] == \
            {"mode": "exact"}
        assert record.policies[f"writes/service_p99_ns{{{labels}}}"] == \
            {"mode": "info"}

    def test_cli_json_is_a_record_that_regresses_clean(
            self, bench, tmp_path, monkeypatch, capsys):
        import repro.writes
        from repro.cli import main
        from repro.metrics import record_from_file

        monkeypatch.setattr(repro.writes, "run_writes",
                            lambda *args, **kwargs: bench)
        out = tmp_path / "writes.json"
        assert main(["writes", "--json", str(out)]) == 0
        record = record_from_file(out)
        assert record.verb == "writes"
        assert record.fingerprint == bench.record().fingerprint
        assert main(["regress", "--baseline", str(out),
                     "--current", str(out)]) == 0
