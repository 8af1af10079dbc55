"""Load generation: arrival shaping, QPS sweeps, SLO knee curves.

The arrival processes themselves live in
:mod:`repro.workloads.arrival` (they are workload plumbing); this
package owns the sweep driver (:func:`run_loadgen`), the
sustained-QPS-under-SLO knee solver (:func:`solve_knee`) and the
typed sweep result (:class:`LoadgenBench`).
"""

from repro.loadgen.knee import (
    ABOVE_RANGE,
    BELOW_RANGE,
    BRACKETED,
    GRID,
    KneeEvaluation,
    KneeSolution,
    solve_knee,
)
from repro.loadgen.schema import (
    DEFAULT_BACKLOG_THRESHOLD,
    KneeEvalPoint,
    LoadgenBench,
    LoadgenCell,
    PresetKnee,
)
from repro.loadgen.sweep import (
    DEFAULT_QPS_SWEEP,
    DEFAULT_SLO_SERVICE_FACTOR,
    QpsSweep,
    parse_qps_sweep,
    run_loadgen,
)

__all__ = [
    "ABOVE_RANGE",
    "BELOW_RANGE",
    "BRACKETED",
    "GRID",
    "DEFAULT_BACKLOG_THRESHOLD",
    "DEFAULT_QPS_SWEEP",
    "DEFAULT_SLO_SERVICE_FACTOR",
    "KneeEvalPoint",
    "KneeEvaluation",
    "KneeSolution",
    "LoadgenBench",
    "LoadgenCell",
    "PresetKnee",
    "QpsSweep",
    "parse_qps_sweep",
    "run_loadgen",
    "solve_knee",
]
