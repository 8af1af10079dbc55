"""Run counts of the retired vector backend, kept for ``bench/``.

The scalar engine is the only execution path (DESIGN.md §4h).  The
benchmark's per-sweep script (``bench/sweep.py``) still sums these
four keys to count cells that ran on the vector backend, and
``bench/`` changes only together with the benchmark itself, so the
function stays until then.  Every count is 0.
"""

from __future__ import annotations

from typing import Dict


def stats() -> Dict[str, int]:
    """The vector-run counts ``bench/sweep.py`` reads, all 0."""
    return {"fused_runs": 0, "job_epoch_runs": 0, "open_loop_runs": 0,
            "multi_core_runs": 0}
