"""Unified metrics registry, run records, and cross-run tooling.

DESIGN.md §4i.  Three layers:

* :mod:`repro.metrics.registry` — the ``subsystem/name{labels}``
  namespace with per-metric gate policies, and adapters from
  simulation results / machines onto it;
* :mod:`repro.metrics.ledger` — :class:`RunRecord`, the one artifact
  schema every measuring verb writes (``--json``) and appends to
  ``.repro_runs/ledger.jsonl`` (``REPRO_RUNS_DIR`` / ``REPRO_LEDGER``
  environment knobs);
* :mod:`repro.metrics.diff` + :mod:`repro.metrics.dashboard` — the
  comparison engine behind ``repro diff``/``repro regress`` and the
  static-HTML observatory behind ``repro dashboard``.
"""

from repro.metrics.dashboard import build_dashboard, render_dashboard
from repro.metrics.diff import (
    DEFAULT_THRESHOLD,
    DiffReport,
    MetricDelta,
    RegressReport,
    classify_delta,
    diff_metric_dicts,
    diff_records,
    metric_direction,
    run_regress,
)
from repro.metrics.ledger import (
    LEDGER_SCHEMA_VERSION,
    WALL_FIELDS,
    RunRecord,
    append_record,
    default_runs_dir,
    filter_records,
    ledger_enabled,
    ledger_path,
    make_record,
    read_ledger,
    record_from_file,
    select_record,
    write_record,
)
from repro.metrics.registry import (
    EXACT,
    INFO,
    METRIC_LABELS,
    Metric,
    MetricSet,
    detail_fingerprint,
    format_key,
    machine_metrics,
    metrics_from_experiments,
    metrics_from_result,
    parse_key,
    payload_digest,
    vector_metrics,
)

__all__ = [
    "DEFAULT_THRESHOLD",
    "EXACT",
    "INFO",
    "LEDGER_SCHEMA_VERSION",
    "METRIC_LABELS",
    "WALL_FIELDS",
    "DiffReport",
    "Metric",
    "MetricDelta",
    "MetricSet",
    "RegressReport",
    "RunRecord",
    "append_record",
    "build_dashboard",
    "classify_delta",
    "default_runs_dir",
    "detail_fingerprint",
    "diff_metric_dicts",
    "diff_records",
    "filter_records",
    "format_key",
    "ledger_enabled",
    "ledger_path",
    "machine_metrics",
    "make_record",
    "metric_direction",
    "metrics_from_experiments",
    "metrics_from_result",
    "parse_key",
    "payload_digest",
    "read_ledger",
    "record_from_file",
    "render_dashboard",
    "run_regress",
    "select_record",
    "vector_metrics",
    "write_record",
]
