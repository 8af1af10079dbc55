"""Unit tests for system configuration and presets."""

import dataclasses
import hashlib
import json
import math

import pytest

from repro.config import (
    EVALUATED_CONFIG_NAMES,
    PRESETS,
    PagingMode,
    SchedulingPolicy,
    derive,
    make_config,
)
from repro.errors import ConfigurationError
from repro.harness.common import FULL, QUICK, HarnessScale, build_config
from repro.harness.parallel import RunSpec, execute_spec
from repro.sim.engine import total_events_executed
from repro.units import GIB


def all_configs():
    return {name: make_config(name) for name in EVALUATED_CONFIG_NAMES}


def test_all_seven_presets_exist():
    configs = all_configs()
    assert sorted(configs) == sorted(EVALUATED_CONFIG_NAMES)
    assert len(configs) == 7


def test_unknown_preset_raises():
    with pytest.raises(ConfigurationError):
        make_config("no-such-config")


#: sha256 prefixes of each preset's resolved fields
#: (``dataclasses.asdict`` as JSON with sorted keys), built bare and
#: through ``build_config`` at quick and at full scale.  A preset-table
#: edit that moves any field of any of the 27 builds fails here first;
#: a new config field moves them all and needs a deliberate re-record.
PRESET_DIGESTS = {
    "dram-only": ("929cce43aefa25d2", "7015349fb958d9f7", "e92bf8cddb7daa04"),
    "astriflash": ("340aa0da75e7ec80", "0371688cce943794", "07c766a426a4fd25"),
    "astriflash-ideal": ("3c3dce92131691e5", "8a99644fd11d9450",
                         "85acd40f27b5e39b"),
    "astriflash-nops": ("908b56bdf41227db", "d9372a8aaf34dd4d",
                        "99ee4887bb778756"),
    "astriflash-nodp": ("f88575eb4adf63dd", "6fc3dc44074159d1",
                        "f1875c0ca95a799c"),
    "os-swap": ("b4f506f907af98f8", "09e7853dea4fe931", "f99ee7e27cf210ef"),
    "flash-sync": ("96ca1fca625b7127", "8172c44f7cdeed20", "28298081c225d416"),
    "astriflash-writes": ("747a854000c5a8d8", "8dd60f4cde9b4196",
                          "571b58304122e97d"),
    "flash-sync-writes": ("af618de8250daab4", "9dbce32b19a10247",
                          "3aa2a768b5c7c041"),
}


def _fields_digest(config):
    fields = json.dumps(dataclasses.asdict(config), sort_keys=True,
                        default=str)
    return hashlib.sha256(fields.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(set(PRESETS) | set(PRESET_DIGESTS)))
def test_preset_fields_are_pinned(name):
    builds = (make_config(name), build_config(name, QUICK),
              build_config(name, FULL))
    assert tuple(_fields_digest(config) for config in builds) == \
        PRESET_DIGESTS.get(name)


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
    for overrides in ((("num_cores", 0),),
                      (("scale.dram_fraction", 0.0),),
                      (("core.store_buffer_entries",
                        config.core.rob_entries + 1),)):
        with pytest.raises(ConfigurationError):
            make_config("astriflash", overrides)
        with pytest.raises(ConfigurationError):
            derive(config, overrides)


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
    ("flash.pages_per_block", 0),
    ("flash.write_buffer_pages", 0),
    ("flash.overprovisioning", 1.0),
    ("flash.overprovisioning", -0.1),
    ("ult.threads_per_core", 0),
    ("os.kernel_threads_per_core", 0),
    ("dram_cache.controller_frequency_ghz", 0.0),
    ("dram_cache.controller_frequency_ghz", -2.0),
    ("dram_cache.evict_buffer_entries", 0),
    ("dram_cache.miss_queue_entries", 0),
    ("dram_cache.frontside_cycles_per_command", -1),
    ("dram_cache.backside_cycles_per_command", -1),
    ("dram_cache.row_activate_ns", -15.0),
    ("dram_cache.column_access_ns", -20.0),
    ("dram_cache.data_transfer_ns", -20.0),
    ("flash.program_latency_ns", -1.0),
    ("flash.erase_latency_ns", -1.0),
    ("flash.gc_blocked_fraction_at_256g", -0.1),
    ("flash.pcie_bandwidth_gbps", 0.0),
    ("flash.pcie_latency_ns", -1.0),
    ("scale.measurement_ns", -1.0),
    ("scale.measurement_ns", 0.0),
    ("scale.measurement_ns", math.nan),
    ("scale.warmup_ns", -1.0),
)


@pytest.mark.parametrize("config_name", ("astriflash", "os-swap",
                                         "dram-only"))
@pytest.mark.parametrize("path,value", BAD_OVERRIDES)
def test_bad_sub_config_override_fails_before_running(config_name, path,
                                                      value):
    # The build itself raises, so no Runner or Machine is ever made.
    with pytest.raises(ConfigurationError):
        build_config(config_name, TINY, ((path, value),))
    spec = RunSpec(config_name, "arrayswap", TINY,
                   config_overrides=((path, value),))
    before = total_events_executed()
    with pytest.raises(ConfigurationError):
        execute_spec(spec)
    assert total_events_executed() == before


def test_deep_copy_is_independent():
    config = make_config("astriflash")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.num_cores = 7
    for field in dataclasses.fields(config):
        sub = getattr(config, field.name)
        if dataclasses.is_dataclass(sub):
            name = dataclasses.fields(sub)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sub, name, getattr(sub, name))
    derived = derive(config, (("ult.threads_per_core", 7),
                              ("scale.dataset_pages", 4096)))
    assert derived.ult.threads_per_core == 7
    assert derived.scale.dataset_pages == 4096
    assert config == make_config("astriflash")


def test_gc_blocking_scales_down_with_capacity():
    config = make_config("astriflash")
    base = config.flash.gc_blocked_fraction
    bigger = derive(config, (("flash.capacity_bytes", 1024 * GIB),))  # 4x
    assert bigger.flash.gc_blocked_fraction == pytest.approx(base / 4)


def test_flash_sync_represents_flatflash_delay():
    config = make_config("flash-sync")
    assert config.flash.read_latency_ns == pytest.approx(50_000.0)
