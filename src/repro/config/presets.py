"""The seven evaluated configurations (paper Sec. V-B).

1. ``DRAM-only``        — ideal: all data served from DRAM.
2. ``AstriFlash``       — the proposal (priority scheduler, 100 ns switch).
3. ``AstriFlash-Ideal`` — AstriFlash with free thread switches.
4. ``AstriFlash-noPS``  — FIFO scheduling instead of priority+aging.
5. ``AstriFlash-noDP``  — no DRAM partitioning: page-table walks can go
   to flash.
6. ``OS-Swap``          — traditional OS demand paging over flash.
7. ``Flash-Sync``       — FlatFlash-style synchronous flash accesses.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.config.system import (
    PagingMode,
    SchedulingPolicy,
    SystemConfig,
)

EVALUATED_CONFIG_NAMES: List[str] = [
    "dram-only",
    "astriflash",
    "astriflash-ideal",
    "astriflash-nops",
    "astriflash-nodp",
    "os-swap",
    "flash-sync",
]


def baseline_config(**overrides) -> SystemConfig:
    """The common Table-I machine; keyword overrides apply on top."""
    config = SystemConfig()
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise AttributeError(f"SystemConfig has no field {key!r}")
        setattr(config, key, value)
    return config


def dram_only(**overrides) -> SystemConfig:
    config = baseline_config(**overrides)
    config.name = "dram-only"
    config.mode = PagingMode.DRAM_ONLY
    return config


def astriflash(**overrides) -> SystemConfig:
    config = baseline_config(**overrides)
    config.name = "astriflash"
    config.mode = PagingMode.ASTRIFLASH
    return config


def astriflash_ideal(**overrides) -> SystemConfig:
    config = astriflash(**overrides)
    config.name = "astriflash-ideal"
    config.ult = dataclasses.replace(config.ult, switch_latency_ns=0.0)
    # The ideal variant also has no ROB-flush penalty for miss signals.
    config.core = dataclasses.replace(config.core, flush_cycles_per_rob_entry=0.0)
    return config


def astriflash_nops(**overrides) -> SystemConfig:
    config = astriflash(**overrides)
    config.name = "astriflash-nops"
    config.ult = dataclasses.replace(config.ult, policy=SchedulingPolicy.FIFO)
    return config


def astriflash_nodp(**overrides) -> SystemConfig:
    config = astriflash(**overrides)
    config.name = "astriflash-nodp"
    config.dram_cache = dataclasses.replace(
        config.dram_cache, partitioning_enabled=False
    )
    return config


def _shrink_flash_for_writes(config: SystemConfig) -> None:
    """Write-path device geometry (DESIGN.md §4j).

    The default 256-plane geometry keeps so much free physical space
    at harness scale that steady-state GC is unreachable inside a
    measurement window.  The write presets model a small write-
    optimized device instead: 8 planes, 8-page blocks (which also
    erase much faster than the default 256-page blocks), SLC-style
    50 us programs, and a tight write buffer, so a write-heavy window
    actually turns the physical space over and the WA/lifetime
    machinery has something to measure.  Over-provisioning is high
    (0.9) because the FTL reserves three blocks per plane (open + two
    free) regardless of size: with 8-page blocks that reserve is a
    large fraction of a plane, and the usable space left over must
    still exceed the workload's dirtied footprint or steady-state GC
    has nothing to compact into.
    """
    config.writes = dataclasses.replace(config.writes, enabled=True)
    config.flash = dataclasses.replace(
        config.flash,
        channels=2,
        dies_per_channel=2,
        planes_per_die=2,
        pages_per_block=8,
        overprovisioning=0.9,
        program_latency_ns=50_000.0,
        erase_latency_ns=500_000.0,
        write_buffer_pages=64,
        gc_policy="tiny-tail",
    )


def astriflash_writes(**overrides) -> SystemConfig:
    """AstriFlash with the write path enabled (``repro writes``)."""
    config = astriflash(**overrides)
    config.name = "astriflash-writes"
    _shrink_flash_for_writes(config)
    return config


def flash_sync_writes(**overrides) -> SystemConfig:
    """Flash-Sync with the write path enabled (``repro writes``)."""
    config = flash_sync(**overrides)
    config.name = "flash-sync-writes"
    _shrink_flash_for_writes(config)
    return config


def os_swap(**overrides) -> SystemConfig:
    config = baseline_config(**overrides)
    config.name = "os-swap"
    config.mode = PagingMode.OS_SWAP
    return config


def flash_sync(**overrides) -> SystemConfig:
    config = baseline_config(**overrides)
    config.name = "flash-sync"
    config.mode = PagingMode.FLASH_SYNC
    return config


_FACTORIES = {
    "dram-only": dram_only,
    "astriflash": astriflash,
    "astriflash-ideal": astriflash_ideal,
    "astriflash-nops": astriflash_nops,
    "astriflash-nodp": astriflash_nodp,
    "os-swap": os_swap,
    "flash-sync": flash_sync,
    # Write-path presets (DESIGN.md §4j): in the factory map so
    # make_config and the `repro writes` sweep can build them, but
    # outside EVALUATED_CONFIG_NAMES — the paper's figures stay on the
    # seven read-dominant configurations.
    "astriflash-writes": astriflash_writes,
    "flash-sync-writes": flash_sync_writes,
}


def make_config(name: str, **overrides) -> SystemConfig:
    """Build one of the seven evaluated configurations by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise KeyError(f"unknown configuration {name!r}; known: {known}") from None
    return factory(**overrides)
