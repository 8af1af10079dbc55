"""Sustained-throughput-under-SLO knee solver.

The TailBench-style headline metric the paper leans on: the maximum
offered load at which the p99 response latency still meets an SLO.
:func:`solve_knee` bisects offered QPS against an arbitrary
``measure`` callable (a simulation in :mod:`repro.loadgen.sweep`, a
synthetic curve in the tests).

``measure(qps)`` returns the p99 in ns, or ``None`` when the point
cannot be certified (its measurement window was censored — see the
backlog contract on :class:`repro.core.runner.SimulationResult`);
``None`` is conservatively treated as an SLO violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ConfigurationError

#: Knee statuses: how the sustained QPS relates to the searched range.
BELOW_RANGE = "below_range"    # even the lowest load violates the SLO
ABOVE_RANGE = "above_range"    # even the highest load meets the SLO
BRACKETED = "bracketed"        # bisected between a good and a bad load
GRID = "grid"                  # read off sampled points, not refined


@dataclass
class KneeEvaluation:
    """One probed load point."""

    qps: float
    p99_ns: Optional[float]
    meets_slo: bool


@dataclass
class KneeSolution:
    """Where the knee sits relative to the searched [lo, hi] range."""

    sustained_qps: Optional[float]
    status: str
    lo_qps: float
    hi_qps: float
    evaluations: List[KneeEvaluation] = field(default_factory=list)


def solve_knee(measure: Callable[[float], Optional[float]],
               lo_qps: float, hi_qps: float, slo_ns: float,
               rel_tol: float = 0.02, max_evals: int = 12) -> KneeSolution:
    """Max QPS in ``[lo_qps, hi_qps]`` whose p99 meets ``slo_ns``.

    Assumes p99 is non-decreasing in offered load (queueing theory's
    gift); bisects until the bracket is within ``rel_tol`` of the
    upper end or ``max_evals`` measurements have been spent.  The
    returned ``sustained_qps`` is always a load that *measured* within
    the SLO (never an unverified midpoint).
    """
    if lo_qps <= 0 or hi_qps <= 0 or lo_qps > hi_qps:
        raise ConfigurationError(
            f"bad knee bracket [{lo_qps}, {hi_qps}]"
        )
    if slo_ns <= 0:
        raise ConfigurationError("SLO must be positive")
    evaluations: List[KneeEvaluation] = []

    def check(qps: float) -> bool:
        p99 = measure(qps)
        meets = p99 is not None and p99 <= slo_ns
        evaluations.append(KneeEvaluation(qps, p99, meets))
        return meets

    if not check(lo_qps):
        return KneeSolution(None, BELOW_RANGE, lo_qps, hi_qps, evaluations)
    if lo_qps == hi_qps or check(hi_qps):
        return KneeSolution(hi_qps, ABOVE_RANGE, lo_qps, hi_qps,
                            evaluations)
    good, bad = lo_qps, hi_qps
    while bad - good > rel_tol * bad and len(evaluations) < max_evals:
        mid = 0.5 * (good + bad)
        if check(mid):
            good = mid
        else:
            bad = mid
    return KneeSolution(good, BRACKETED, good, bad, evaluations)
