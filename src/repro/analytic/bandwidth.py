"""Equation 1: flash bandwidth required to refill the DRAM cache.

    BW_flash = BW_DRAM / BlockSize * MissRate * PageSize

Every DRAM-cache miss pulls a whole 4 KiB page from flash while the
cores consume 64 B blocks from DRAM, so the refill bandwidth is the
block-level demand scaled by the page/block amplification and the miss
rate (Sec. II-A, Fig. 1).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.units import CACHE_BLOCK_SIZE, PAGE_SIZE

# Paper values (Sec. II-A).
AVERAGE_DRAM_BANDWIDTH_PER_CORE_GBPS = 0.5
PAPER_CORE_COUNT = 64
PCIE_GEN5_BANDWIDTH_GBPS = 128.0


def flash_bandwidth_per_core_gbps(
        miss_rate: float,
        dram_bandwidth_gbps: float = AVERAGE_DRAM_BANDWIDTH_PER_CORE_GBPS,
        page_size: int = PAGE_SIZE,
        block_size: int = CACHE_BLOCK_SIZE) -> float:
    """Equation 1 for one core, in GB/s."""
    if not 0.0 <= miss_rate <= 1.0:
        raise ConfigurationError("miss rate must be in [0,1]")
    if page_size < block_size:
        raise ConfigurationError("page smaller than a block")
    return dram_bandwidth_gbps / block_size * miss_rate * page_size


def flash_bandwidth_total_gbps(miss_rate: float, num_cores: int,
                               **kwargs) -> float:
    """Aggregate Equation-1 bandwidth for ``num_cores`` cores."""
    if num_cores < 1:
        raise ConfigurationError("need at least one core")
    return num_cores * flash_bandwidth_per_core_gbps(miss_rate, **kwargs)
