"""Sec. VI-D: garbage-collection overheads vs flash capacity.

The paper argues a 256 GiB flash blocks ~4% of requests behind GC while
a 1 TiB device (4x the planes) blocks <1%, and that asynchronous writes
keep GC off the critical path.  We regenerate the capacity scaling from
the analytic blocking model; the blocking path itself is exercised under
write churn by ``benchmarks/test_ablation_gc_policy.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import FlashConfig
from repro.harness.common import ExperimentResult
from repro.units import GIB

CAPACITIES_GIB: Sequence[int] = (128, 256, 512, 1024)


def run(scale="quick", jobs: Optional[int] = None) -> ExperimentResult:
    del scale, jobs  # analytic model
    result = ExperimentResult(
        experiment="gc_overheads",
        title="Sec. VI-D: GC-blocked request fraction vs flash capacity",
        columns=["capacity_gib", "analytic_blocked_fraction"],
        notes="Paper: ~4% blocked at 256 GiB, <1% at 1 TiB.",
    )
    for capacity in CAPACITIES_GIB:
        config = FlashConfig(capacity_bytes=capacity * GIB)
        result.add_row(capacity, config.gc_blocked_fraction)
    return result
