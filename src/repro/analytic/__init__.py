"""Analytic models: queueing (Fig. 3), Equation-1 bandwidth (Fig. 1),
and the 20x memory-cost claim."""

from repro.analytic.bandwidth import (
    AVERAGE_DRAM_BANDWIDTH_PER_CORE_GBPS,
    PCIE_GEN5_BANDWIDTH_GBPS,
    flash_bandwidth_per_core_gbps,
    flash_bandwidth_total_gbps,
)
from repro.analytic.costmodel import (
    FLASH_PRICE_ADVANTAGE,
    astriflash_cost,
    cost_reduction_factor,
    dram_only_cost,
)
from repro.analytic.silicon import (
    AsoSiliconEstimate,
    aso_silicon_estimate,
)
from repro.analytic.queueing import (
    OverlapModel,
    erlang_c,
    mm1_response_percentile,
    mmk_response_percentile,
    mmk_response_survival,
    paper_figure3_models,
)

__all__ = [
    "AVERAGE_DRAM_BANDWIDTH_PER_CORE_GBPS",
    "FLASH_PRICE_ADVANTAGE",
    "AsoSiliconEstimate",
    "OverlapModel",
    "aso_silicon_estimate",
    "PCIE_GEN5_BANDWIDTH_GBPS",
    "astriflash_cost",
    "cost_reduction_factor",
    "dram_only_cost",
    "erlang_c",
    "flash_bandwidth_per_core_gbps",
    "flash_bandwidth_total_gbps",
    "mm1_response_percentile",
    "mmk_response_percentile",
    "mmk_response_survival",
    "paper_figure3_models",
]
