"""Unit tests for system configuration and presets."""

import copy

import pytest

from repro.config import (
    EVALUATED_CONFIG_NAMES,
    PagingMode,
    SchedulingPolicy,
    make_config,
)
from repro.errors import ConfigurationError
from repro.harness.common import HarnessScale
from repro.harness.parallel import RunSpec, execute_spec
from repro.sim.engine import total_events_executed
from repro.units import GIB


def all_configs():
    return {name: make_config(name) for name in EVALUATED_CONFIG_NAMES}


def test_all_seven_presets_exist():
    configs = all_configs()
    assert sorted(configs) == sorted(EVALUATED_CONFIG_NAMES)
    assert len(configs) == 7


def test_presets_validate():
    for config in all_configs().values():
        config.validate()


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        make_config("no-such-config")


def test_paper_capacity_ratio_is_3_percent():
    config = make_config("astriflash")
    ratio = config.dram_cache.capacity_bytes / config.flash.capacity_bytes
    assert ratio == pytest.approx(8 * GIB / (256 * GIB))
    assert ratio == pytest.approx(0.03125)


def test_modes_match_names():
    configs = all_configs()
    assert configs["dram-only"].mode is PagingMode.DRAM_ONLY
    assert configs["astriflash"].mode is PagingMode.ASTRIFLASH
    assert configs["os-swap"].mode is PagingMode.OS_SWAP
    assert configs["flash-sync"].mode is PagingMode.FLASH_SYNC


def test_ideal_variant_has_free_switches():
    config = make_config("astriflash-ideal")
    assert config.ult.switch_latency_ns == 0.0
    assert config.core.flush_cycles_per_rob_entry == 0.0
    # The base proposal keeps the paper's 100 ns.
    assert make_config("astriflash").ult.switch_latency_ns == 100.0


def test_nops_variant_uses_fifo():
    assert make_config("astriflash-nops").ult.policy is SchedulingPolicy.FIFO
    assert make_config("astriflash").ult.policy is SchedulingPolicy.PRIORITY_AGING


def test_nodp_variant_disables_partitioning():
    assert not make_config("astriflash-nodp").dram_cache.partitioning_enabled
    assert make_config("astriflash").dram_cache.partitioning_enabled


def test_scaled_dram_cache_is_3_percent_of_dataset():
    config = make_config("astriflash")
    expected = int(config.scale.dataset_pages * 0.03)
    assert config.scaled_dram_cache_pages == expected


def test_invalid_configs_raise():
    config = make_config("astriflash")
    config.num_cores = 0
    with pytest.raises(ConfigurationError):
        config.validate()

    config = make_config("astriflash")
    config.scale.dram_fraction = 0.0
    with pytest.raises(ConfigurationError):
        config.validate()

    config = make_config("astriflash")
    config.core.store_buffer_entries = config.core.rob_entries + 1
    with pytest.raises(ConfigurationError):
        config.validate()


TINY = HarnessScale(
    name="tiny", dataset_pages=2048, num_cores=1, warmup_us=100.0,
    measurement_us=200.0, zipf_s=1.8, workloads=("arrayswap",))

#: Out-of-range os/ult/tlb knobs; each used to run to a plausible but
#: wrong figure (or fail only mid-run).
BAD_OVERRIDES = (
    ("tlb.miss_probability", 1.5),
    ("tlb.miss_probability", -0.5),
    ("os.page_table_levels", 0),
    ("os.page_table_levels", -2),
    ("os.shootdown_batch_size", 0),
    ("os.context_switch_ns", -1000.0),
    ("os.page_fault_kernel_ns", -1000.0),
    ("os.tlb_shootdown_base_ns", -1.0),
    ("os.tlb_shootdown_per_core_ns", -1.0),
    ("ult.switch_latency_ns", -100.0),
    ("ult.aging_threshold_factor", -1.0),
    ("core.flush_cycles_per_rob_entry", -0.5),
)


@pytest.mark.parametrize("config_name", ("astriflash", "os-swap",
                                         "dram-only"))
@pytest.mark.parametrize("path,value", BAD_OVERRIDES)
def test_bad_sub_config_override_fails_before_running(config_name, path,
                                                      value):
    spec = RunSpec(config_name, "arrayswap", TINY,
                   config_overrides=((path, value),))
    before = total_events_executed()
    with pytest.raises(ConfigurationError):
        execute_spec(spec, snapshots=False)
    assert total_events_executed() == before


def test_deep_copy_is_independent():
    config = make_config("astriflash")
    clone = copy.deepcopy(config)
    clone.ult.threads_per_core = 7
    assert config.ult.threads_per_core != 7


def test_gc_blocking_scales_down_with_capacity():
    config = make_config("astriflash")
    base = config.flash.gc_blocked_fraction
    config.flash.capacity_bytes = 1024 * GIB  # 1 TiB, 4x reference
    assert config.flash.gc_blocked_fraction == pytest.approx(base / 4)


def test_flash_sync_represents_flatflash_delay():
    config = make_config("flash-sync")
    assert config.flash.read_latency_ns == pytest.approx(50_000.0)
