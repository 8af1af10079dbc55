"""Table I: system parameters for simulation.

This is the configuration itself — regenerating it verifies the preset
matches the paper's machine (16x ARM Cortex-A76-like cores, 1 MiB of
LLC per core, 256 GiB dataset on flash, 8 GiB (3%) DRAM cache, 4 KiB
pages, 50 us flash reads, FC 1 cycle / BC 3 cycles per command,
32-64 user threads per core at 100 ns per switch), plus the Sec. IV-C4
silicon estimate for ASO store speculation (~2 KiB of SRAM, ~0.1% of
an A76).
"""

from __future__ import annotations

from repro.analytic.silicon import aso_silicon_estimate
from repro.config import make_config
from repro.harness.common import ExperimentResult
from repro.units import GIB, MIB, US


def run(scale="quick", jobs=None) -> ExperimentResult:
    del scale, jobs  # static configuration
    config = make_config("astriflash")
    result = ExperimentResult(
        experiment="table1",
        title="Table I: system parameters (AstriFlash preset)",
        columns=["parameter", "value"],
    )
    core = config.core
    aso = aso_silicon_estimate(core)
    result.add_row("cores", f"{config.num_cores}x ARM Cortex-A76-like")
    result.add_row("core frequency", f"{core.frequency_ghz:g} GHz")
    result.add_row("issue width", f"{core.issue_width}-wide OoO")
    result.add_row("ROB / SB", f"{core.rob_entries} / "
                               f"{core.store_buffer_entries} entries")
    result.add_row("base PRF", f"{core.base_physical_registers} registers "
                               f"(+{aso.extra_registers} for ASO)")
    result.add_row("ASO silicon", aso.describe())
    result.add_row("LLC", f"{config.llc_capacity_per_core // MIB} MiB per core")
    result.add_row("dataset on flash",
                   f"{config.flash.capacity_bytes // GIB} GiB")
    result.add_row("DRAM cache",
                   f"{config.dram_cache.capacity_bytes // GIB} GiB "
                   f"({config.dram_cache.capacity_bytes / config.flash.capacity_bytes:.1%}) "
                   f"{config.dram_cache.associativity}-way, 4 KiB pages")
    result.add_row("flash read latency",
                   f"{config.flash.read_latency_ns / US:g} us")
    result.add_row("frontside controller",
                   f"FSM, {config.dram_cache.frontside_cycles_per_command} "
                   "cycle/command, FR-FCFS")
    result.add_row("backside controller",
                   f"programmable, {config.dram_cache.backside_cycles_per_command} "
                   "cycles/command")
    result.add_row("miss status row",
                   f"{config.dram_cache.msr_entries} entries in DRAM")
    result.add_row("user threads",
                   f"{config.ult.threads_per_core} per core, "
                   f"{config.ult.switch_latency_ns:g} ns switch")
    result.add_row("scheduling", config.ult.policy.value)
    return result
