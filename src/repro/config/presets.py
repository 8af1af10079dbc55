"""The seven evaluated configurations (paper Sec. V-B).

1. ``DRAM-only``        — ideal: all data served from DRAM.
2. ``AstriFlash``       — the proposal (priority scheduler, 100 ns switch).
3. ``AstriFlash-Ideal`` — AstriFlash with free thread switches.
4. ``AstriFlash-noPS``  — FIFO scheduling instead of priority+aging.
5. ``AstriFlash-noDP``  — no DRAM partitioning: page-table walks can go
   to flash.
6. ``OS-Swap``          — traditional OS demand paging over flash.
7. ``Flash-Sync``       — FlatFlash-style synchronous flash accesses.

Each is a delta on the common Table I machine (``SystemConfig()``),
written as ``(dotted path, value)`` pairs in :data:`PRESETS`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.config.system import (
    Override,
    PagingMode,
    SchedulingPolicy,
    SystemConfig,
    derive,
)
from repro.errors import ConfigurationError

EVALUATED_CONFIG_NAMES: List[str] = [
    "dram-only",
    "astriflash",
    "astriflash-ideal",
    "astriflash-nops",
    "astriflash-nodp",
    "os-swap",
    "flash-sync",
]

#: Write-path device geometry (DESIGN.md §4j).
#:
#: The default 256-plane geometry keeps so much free physical space
#: at harness scale that steady-state GC is unreachable inside a
#: measurement window.  The write presets model a small write-
#: optimized device instead: 8 planes, 8-page blocks (which also
#: erase much faster than the default 256-page blocks), SLC-style
#: 50 us programs, and a tight write buffer, so a write-heavy window
#: actually turns the physical space over and the WA/lifetime
#: machinery has something to measure.  Over-provisioning is high
#: (0.9) because the FTL reserves three blocks per plane (open + two
#: free) regardless of size: with 8-page blocks that reserve is a
#: large fraction of a plane, and the usable space left over must
#: still exceed the workload's dirtied footprint or steady-state GC
#: has nothing to compact into.
_WRITE_DEVICE: Tuple[Override, ...] = (
    ("writes.enabled", True),
    ("flash.channels", 2),
    ("flash.dies_per_channel", 2),
    ("flash.planes_per_die", 2),
    ("flash.pages_per_block", 8),
    ("flash.overprovisioning", 0.9),
    ("flash.program_latency_ns", 50_000.0),
    ("flash.erase_latency_ns", 500_000.0),
    ("flash.write_buffer_pages", 64),
    ("flash.gc_policy", "tiny-tail"),
)

#: The common Table I machine; frozen, so every build shares it.
_TABLE_I = SystemConfig()

PRESETS: Dict[str, Tuple[Override, ...]] = {
    "dram-only": (("mode", PagingMode.DRAM_ONLY),),
    "astriflash": (("mode", PagingMode.ASTRIFLASH),),
    "astriflash-ideal": (
        ("mode", PagingMode.ASTRIFLASH),
        ("ult.switch_latency_ns", 0.0),
        # The ideal variant also has no ROB-flush penalty for miss signals.
        ("core.flush_cycles_per_rob_entry", 0.0),
    ),
    "astriflash-nops": (
        ("mode", PagingMode.ASTRIFLASH),
        ("ult.policy", SchedulingPolicy.FIFO),
    ),
    "astriflash-nodp": (
        ("mode", PagingMode.ASTRIFLASH),
        ("dram_cache.partitioning_enabled", False),
    ),
    "os-swap": (("mode", PagingMode.OS_SWAP),),
    "flash-sync": (("mode", PagingMode.FLASH_SYNC),),
    # Write-path presets (``repro writes``): buildable by name, but
    # outside EVALUATED_CONFIG_NAMES — the paper's figures stay on the
    # seven read-dominant configurations.
    "astriflash-writes": (("mode", PagingMode.ASTRIFLASH),) + _WRITE_DEVICE,
    "flash-sync-writes": (("mode", PagingMode.FLASH_SYNC),) + _WRITE_DEVICE,
}


def make_config(name: str, overrides: Iterable[Override] = ()) -> SystemConfig:
    """Build a preset by name, with ``overrides`` applied on top."""
    try:
        preset = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigurationError(
            f"unknown configuration {name!r}; known: {known}") from None
    return derive(_TABLE_I, (("name", name),) + preset + tuple(overrides))
