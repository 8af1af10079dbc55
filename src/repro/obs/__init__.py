"""Observability: request-lifecycle tracing, telemetry, attribution.

The subsystem has four parts (DESIGN.md §4d):

* :mod:`repro.obs.tracer` — span/record collection with sampling and a
  single-branch no-op fast path when disabled;
* :mod:`repro.obs.chrometrace` — Chrome trace-event JSON export
  (opens in Perfetto / ``chrome://tracing``) and validation;
* :mod:`repro.obs.telemetry` — periodic read-only snapshots of MSR
  occupancy, queue depths, dirty ways, flash depth and core busy;
* :mod:`repro.obs.attribution` — Table-2-style component breakdown of
  service latency, bucketed by percentile.

:func:`trace_experiment` is the one-call session helper behind
``python -m repro trace-run``: enable a tracer, re-run an experiment
in-process, and return the tracer alongside the experiment result.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs.attribution import (
    AttributionBucket,
    BUCKETS,
    RunAttribution,
    attribute,
    format_attribution,
)
from repro.obs.chrometrace import (
    export_chrome_trace,
    export_trace_events,
    validate_chrome_trace,
    validate_trace_events,
    write_chrome_trace,
)
from repro.obs.telemetry import (
    TELEMETRY_FIELDS,
    TelemetrySampler,
    write_telemetry_csv,
)
from repro.obs.tracer import (
    COMPONENTS,
    RequestRecord,
    Tracer,
    active,
    disable,
    enable,
)

__all__ = [
    "AttributionBucket",
    "BUCKETS",
    "COMPONENTS",
    "RequestRecord",
    "RunAttribution",
    "TELEMETRY_FIELDS",
    "Tracer",
    "TelemetrySampler",
    "active",
    "attribute",
    "disable",
    "enable",
    "export_chrome_trace",
    "export_trace_events",
    "format_attribution",
    "trace_experiment",
    "trace_specs",
    "validate_chrome_trace",
    "validate_trace_events",
    "write_chrome_trace",
    "write_telemetry_csv",
]


def trace_experiment(experiment: str, scale: str = "quick",
                     tracer: Optional[Tracer] = None) -> Tuple[Tracer, object]:
    """Run one harness experiment with tracing enabled.

    Forces in-process execution: tracing happens inside the simulating
    process, so pool workers would leave the tracer empty.  Returns
    ``(tracer, result)`` where ``result`` is the experiment's
    :class:`~repro.harness.common.ExperimentResult`.
    """
    from repro.harness import run_experiment

    if tracer is None:
        tracer = Tracer()
    enable(tracer)
    try:
        result = run_experiment(experiment, scale=scale, jobs=1)
    finally:
        disable()
    return tracer, result


def trace_specs(specs, tracer: Optional[Tracer] = None) -> Tuple[Tracer, list]:
    """Execute :class:`~repro.harness.parallel.RunSpec`s under tracing.

    In-process, in order — the traced analogue of
    ``run_specs`` used by ``repro report --telemetry``.
    """
    from repro.harness.parallel import execute_spec

    if tracer is None:
        tracer = Tracer()
    enable(tracer)
    try:
        results = [execute_spec(spec) for spec in specs]
    finally:
        disable()
    return tracer, results
