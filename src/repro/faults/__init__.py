"""Fault injection & resilience subsystem (DESIGN.md §4f).

Layout:

* :mod:`repro.faults.model` — the error math: RBER -> Poisson-tail
  codeword failure -> page failure, retry-round RBER scaling, and the
  :class:`ReadOutcome` value object.
* :mod:`repro.faults.plan` — :class:`FaultPlan`, the seeded per-read
  decision stream (own RNG, never the sim RNG) plus per-plane failure
  tracking that drives the degraded mirror-read mode.
* :mod:`repro.faults.chaos` — the chaos-sweep harness behind
  ``python -m repro chaos``: degradation curves (throughput / p99 vs
  injected RBER) per preset, schema-stamped for CI.

``chaos`` pulls in the full experiment harness, so it is deliberately
*not* imported here — the flash device only needs the plan, and
importing it from this package must stay cheap and cycle-free.  Use
``from repro.faults.chaos import run_chaos``.
"""

from repro.faults.model import (
    ReadOutcome,
    codeword_failure_probability,
    effective_rber,
    page_failure_probability,
    poisson_tail,
)
from repro.faults.plan import FaultPlan

__all__ = [
    "FaultPlan",
    "ReadOutcome",
    "codeword_failure_probability",
    "effective_rber",
    "page_failure_probability",
    "poisson_tail",
]
