"""Core-side cost of a DRAM-cache miss signal.

The performance simulation does not execute instructions one by one
(see DESIGN.md); the core side of a miss reaches the results only
through its cost: the ROB flush + redirect to the user-level handler
(lost OoO work, proportional to window occupancy; TPCC's compute-heavy
window makes its flushes costlier, Sec. VI-A).  The silicon cost of
ASO store speculation (Sec. IV-C4) is arithmetic and lives in
:mod:`repro.analytic.silicon`.
"""

from __future__ import annotations

from repro.config.system import CoreConfig


def flush_penalty_ns(config: CoreConfig, rob_occupancy: float) -> float:
    """Cost of flushing the pipeline on a miss signal.

    The penalty models both the discarded in-flight work and the refill
    of the front end, linear in occupancy (clamped to the window).
    """
    rob_occupancy = min(max(rob_occupancy, 0.0), float(config.rob_entries))
    cycles = rob_occupancy * config.flush_cycles_per_rob_entry
    return cycles * config.cycle_ns
