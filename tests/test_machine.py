"""Tests for machine assembly across the four paging modes."""

import pytest

from repro.config import make_config
from repro.core import Machine, PTES_PER_PAGE
from repro.errors import ConfigurationError
from repro.workloads import make_workload


def small_config(name):
    return make_config(name, (("num_cores", 2),
                              ("scale.dataset_pages", 2048)))


class TestMachineAssembly:
    def test_dram_only_has_no_flash(self):
        machine = Machine(small_config("dram-only"))
        assert machine.flash is None
        assert machine.dram_cache is None
        assert machine.pager is None

    def test_astriflash_has_cache_and_libraries(self):
        machine = Machine(small_config("astriflash"))
        assert machine.flash is not None
        assert machine.dram_cache is not None
        assert machine.pager is None
        assert all(lib is not None for lib in machine.libraries)

    def test_flash_sync_has_cache_but_no_threads(self):
        machine = Machine(small_config("flash-sync"))
        assert machine.dram_cache is not None
        assert all(lib is None for lib in machine.libraries)

    def test_os_swap_has_pager_and_kernel_threads(self):
        config = small_config("os-swap")
        machine = Machine(config)
        assert machine.pager is not None
        assert machine.dram_cache is None
        for library in machine.libraries:
            assert library is not None
            assert library.config.switch_latency_ns == \
                config.os.context_switch_ns

    def test_cache_capacity_is_3_percent(self):
        config = small_config("astriflash")
        machine = Machine(config)
        expected = config.scaled_dram_cache_pages
        # Rounded down to whole sets.
        assert abs(machine.dram_cache.capacity_pages - expected) < \
            config.dram_cache.associativity


class TestPageTablePlacement:
    def test_pt_pages_sit_above_dataset(self):
        machine = Machine(small_config("astriflash"))
        pt_page = machine.page_table_page(0)
        assert pt_page >= machine.dataset_pages
        assert machine.page_table_page(PTES_PER_PAGE - 1) == pt_page
        assert machine.page_table_page(PTES_PER_PAGE) == pt_page + 1

    def test_out_of_range_data_page_raises(self):
        machine = Machine(small_config("astriflash"))
        with pytest.raises(ConfigurationError):
            machine.page_table_page(machine.dataset_pages)

    def test_partitioning_flag(self):
        assert not Machine(small_config("astriflash")).page_tables_in_flash_space
        assert Machine(small_config("astriflash-nodp")).page_tables_in_flash_space
        # Other modes never walk through the cache.
        assert not Machine(small_config("flash-sync")).page_tables_in_flash_space


class TestWarmup:
    def test_warm_caches_populates_dram_cache(self):
        machine = Machine(small_config("astriflash"))
        workload = make_workload("arrayswap", 2048, seed=1)
        machine.warm_caches(workload, num_steps=5000)
        assert any(machine.dram_cache.organization.tag_index)

    def test_warm_caches_populates_resident_set(self):
        machine = Machine(small_config("os-swap"))
        workload = make_workload("arrayswap", 2048, seed=1)
        machine.warm_caches(workload, num_steps=5000)
        assert len(machine.pager.resident) > 0

    def test_warm_caches_noop_for_dram_only(self):
        machine = Machine(small_config("dram-only"))
        workload = make_workload("arrayswap", 2048, seed=1)
        machine.warm_caches(workload, num_steps=100)  # must not raise
