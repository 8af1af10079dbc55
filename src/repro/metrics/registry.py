"""Unified metrics registry: one labeled namespace for every stat.

The simulator's observability surface grew organically — counters in
:class:`repro.stats.CounterSet` bags, latency percentiles as
``SimulationResult`` fields, process-wide vector-backend telemetry in
``repro.sim.vector.stats()``, GC/wear figures living on the machine,
and five disjoint ``BENCH_*`` JSON schemas.  This module folds all of
them into a single flat namespace:

    ``subsystem/name{label=value,...}`` -> float

Labels are the cross-cutting dimensions every comparison tool needs
(``preset``, ``workload``, ``backend``, ``core``, plus sweep axes like
``rber``/``qps``), rendered into the key in sorted order so the same
metric always serializes to the same string.  The rendered keys are
what the run ledger stores and ``repro diff``/``repro regress``
compare — plain ``Dict[str, float]`` on the wire, structured
:class:`Metric` objects in memory.

:func:`bench_view` is the adapter layer: it recognizes any of the
repo's schema-stamped bench payloads (kernel, sweep, chaos, loadgen,
writes, profile) and projects it onto the namespace, together with per-metric
*comparison policies* (exact, floor, relative, informational) that
drive the regression verdicts in :mod:`repro.metrics.diff`.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.jsonutil import dumps as json_dumps

#: The canonical label dimensions (sweep adapters may add axis labels
#: such as ``rber`` or ``qps`` on top).
METRIC_LABELS = ("preset", "workload", "backend", "core")

_KEY_RE = re.compile(r"^(?P<name>[^{]+)(\{(?P<labels>[^}]*)\})?$")


def format_key(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """Render ``subsystem/name`` + labels as a canonical string key."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`format_key` (tolerant: bad labels -> empty)."""
    match = _KEY_RE.match(key)
    if match is None:
        return key, {}
    name = match.group("name")
    raw = match.group("labels")
    labels: Dict[str, str] = {}
    if raw:
        for part in raw.split(","):
            if "=" in part:
                label, _, value = part.partition("=")
                labels[label] = value
    return name, labels


@dataclass(frozen=True)
class Metric:
    """One named, labeled sample of the registry namespace."""

    name: str                                  # "subsystem/name"
    value: float
    labels: Tuple[Tuple[str, str], ...] = ()   # sorted (key, value) pairs

    def label(self, key: str, default: str = "") -> str:
        for name, value in self.labels:
            if name == key:
                return value
        return default

    @property
    def subsystem(self) -> str:
        return self.name.split("/", 1)[0]

    def key(self) -> str:
        return format_key(self.name, dict(self.labels))


class MetricSet:
    """An insertion-ordered bag of :class:`Metric` samples.

    ``add`` keeps the *last* value written for a key (collection order
    is deterministic, so re-adding is an explicit overwrite, matching
    counter-restore semantics elsewhere in the repo).
    """

    def __init__(self, metrics: Iterable[Metric] = ()) -> None:
        self._metrics: Dict[str, Metric] = {}
        for metric in metrics:
            self._metrics[metric.key()] = metric

    def add(self, name: str, value: float, **labels: str) -> None:
        if value is None:
            return  # absent samples stay absent (e.g. censored p99)
        value = float(value)
        if not math.isfinite(value):
            # A NaN/inf sample would serialize as null in the ledger
            # and read back as a phantom added/removed key in diffs.
            return
        clean = {key: str(val) for key, val in labels.items()
                 if val not in (None, "")}
        metric = Metric(name=name, value=value,
                        labels=tuple(sorted(clean.items())))
        self._metrics[metric.key()] = metric

    def merge(self, other: "MetricSet") -> None:
        for metric in other:
            self._metrics[metric.key()] = metric

    def get(self, key: str) -> Optional[float]:
        metric = self._metrics.get(key)
        return metric.value if metric is not None else None

    def filter(self, prefix: str) -> "MetricSet":
        """Metrics whose name starts with ``prefix`` (e.g. "flash/")."""
        return MetricSet(m for m in self if m.name.startswith(prefix))

    def as_dict(self) -> Dict[str, float]:
        """The wire form: rendered key -> value, insertion-ordered."""
        return {key: metric.value for key, metric in self._metrics.items()}

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    def __repr__(self) -> str:
        return f"<MetricSet {len(self)} metrics>"


# -------------------------------------------------- simulation adapters --

#: SimulationResult fields that depend on the wall clock or warm-state
#: provenance; they are ledger *record* fields, never metrics.
RESULT_WALL_FIELDS = (
    "events_per_second", "wall_seconds", "warm_wall_seconds", "warm_source",
)


def metrics_from_result(result, backend: str = "") -> "MetricSet":
    """Project one ``SimulationResult`` onto the registry namespace.

    Scalar result fields land under ``runner/``; the counters dict is
    split on its dotted prefixes (``engine.compactions`` ->
    ``engine/compactions``).  Wall-clock fields are excluded — they
    belong on the :class:`~repro.metrics.ledger.RunRecord` itself, so
    the metrics mapping of two identical-seed runs is bit-identical.
    """
    labels = {"preset": result.config_name,
              "workload": result.workload_name}
    if backend:
        labels["backend"] = backend
    metrics = MetricSet()
    for name, value in result.__dict__.items():
        if name in RESULT_WALL_FIELDS or name in ("config_name",
                                                  "workload_name",
                                                  "counters"):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        metrics.add(f"runner/{name}", value, **labels)
    for key, value in result.counters.items():
        subsystem, _, stat = key.partition(".")
        if not stat:
            subsystem, stat = "runner", key
        metrics.add(f"{subsystem}/{stat}", value, **labels)
    return metrics


def machine_metrics(machine, **labels: str) -> "MetricSet":
    """GC and wear figures that live on the machine, not the result.

    These stay out of ``SimulationResult.counters`` deliberately (the
    golden determinism pin compares that dict exactly); the registry is
    where they become visible without perturbing the contract.
    """
    metrics = MetricSet()
    flash = getattr(machine, "flash", None)
    if flash is None:
        return metrics
    metrics.add("gc/blocked_fraction", flash.gc.blocked_fraction(), **labels)
    for key, value in flash.gc.stats.as_dict().items():
        metrics.add(f"gc/{key}", value, **labels)
    counts = flash.ftl.erase_counts()
    if counts:
        metrics.add("flash/erase_count_max", float(max(counts)), **labels)
        metrics.add("flash/erase_count_mean",
                    sum(counts) / len(counts), **labels)
    metrics.add("flash/wear_imbalance", flash.ftl.wear_imbalance(), **labels)
    # Write-path figures (DESIGN.md §4j), gated exactly like the
    # counters they mirror: invisible unless the preset enabled writes.
    writes_cfg = getattr(flash, "writes", None)
    if writes_cfg is not None:
        window = flash.gc.write_window()
        metrics.add("writes/wa_factor", window["wa_factor"], **labels)
        metrics.add("writes/host_writes", window["host_writes"], **labels)
        metrics.add("writes/device_writes", window["device_writes"],
                    **labels)
        metrics.add("writes/flash_writes_per_app_write",
                    window["flash_writes_per_app_write"], **labels)
        metrics.add("writes/admission_rejects",
                    window["admission_rejects"],
                    policy=writes_cfg.admission_policy, **labels)
        lifetime = window.get("lifetime_years")
        if lifetime is not None:
            metrics.add("writes/lifetime_years", lifetime, **labels)
    return metrics


def vector_metrics(**labels: str) -> "MetricSet":
    """The process-wide vector-backend telemetry as ``vector/*``."""
    from repro.sim import vector

    metrics = MetricSet()
    for key, value in vector.stats().items():
        metrics.add(f"vector/{key}", float(value), **labels)
    for reason, count in sorted(vector.fallback_reasons().items()):
        metrics.add("vector/fallbacks", float(count),
                    reason=reason.replace(",", ";"), **labels)
    return metrics


def metrics_from_experiments(results) -> Tuple[Dict[str, float], str]:
    """Summarize ``repro report`` output (ExperimentResult list) into
    the namespace, plus a deterministic fingerprint over every table.

    Per experiment, each numeric column contributes its mean under
    ``report/<experiment>/<column>`` and the row count under
    ``report/<experiment>/rows`` — coarse on purpose: the fingerprint
    pins the exact tables, the metrics give ``repro diff`` humane
    per-figure deltas.
    """
    metrics = MetricSet()
    canonical: List[Dict[str, object]] = []
    for result in results:
        canonical.append({"experiment": result.experiment,
                          "columns": result.columns,
                          "rows": result.rows})
        metrics.add(f"report/{result.experiment}/rows",
                    float(len(result.rows)))
        for index, column in enumerate(result.columns):
            values = [row[index] for row in result.rows
                      if isinstance(row[index], (int, float))
                      and not isinstance(row[index], bool)]
            if values:
                metrics.add(f"report/{result.experiment}/{column}",
                            sum(values) / len(values))
    fingerprint = hashlib.sha256(
        json_dumps(canonical, indent=None).encode()
    ).hexdigest()[:16]
    return metrics.as_dict(), fingerprint


# ------------------------------------------------------ bench adapters --

#: Comparison-policy modes understood by repro.metrics.diff:
#: ``exact`` (any change is a regression), ``floor`` (current must not
#: drop below baseline), ``relative`` (directional, thresholded) and
#: ``info`` (recorded, never gated — wall-clock-ish figures).
POLICY_MODES = ("exact", "floor", "relative", "info")


@dataclass
class BenchView:
    """A bench payload projected onto the metrics namespace."""

    verb: str
    metrics: Dict[str, float] = field(default_factory=dict)
    policies: Dict[str, Dict[str, object]] = field(default_factory=dict)
    fingerprint: str = ""


def _cells_fingerprint(payload: Mapping, key: str = "cells") -> str:
    return hashlib.sha256(
        json_dumps(payload.get(key, []), indent=None).encode()
    ).hexdigest()[:16]


def _kernel_view(payload: Mapping) -> BenchView:
    view = BenchView(verb="bench-kernel")
    if payload.get("bit_identical") is not None:
        view.metrics["kernel/bit_identical"] = \
            1.0 if payload["bit_identical"] else 0.0
        view.policies["kernel/bit_identical"] = {"mode": "exact"}
    if payload.get("speedup") is not None:
        view.metrics["kernel/speedup"] = float(payload["speedup"])
        view.policies["kernel/speedup"] = {"mode": "floor"}
    for entry in payload.get("entries", ()):
        backend = entry.get("backend", "")
        for stat, mode in (("events_executed", "exact"),
                           ("events_per_second", "info"),
                           ("wall_seconds", "info")):
            value = entry.get(stat)
            if value is None:
                continue
            key = format_key(f"kernel/{stat}", {"backend": backend})
            view.metrics[key] = float(value)
            view.policies[key] = {"mode": mode}
        for stat, value in (entry.get("vector_stats") or {}).items():
            key = format_key(f"vector/{stat}", {"backend": backend})
            view.metrics[key] = float(value)
            view.policies[key] = {"mode": "info"}
        if backend == "scalar" and entry.get("state_fingerprint"):
            view.fingerprint = entry["state_fingerprint"]
    # Schema v3: per-shape cells.  Bit-identity gates exactly; the
    # per-shape speedup is a floor the baseline hand-pins (2x on each
    # of fused, open-loop and multi-core).
    for shape in payload.get("shapes", ()):
        labels = {"shape": shape.get("shape", "")}
        if shape.get("bit_identical") is not None:
            key = format_key("kernel/bit_identical", labels)
            view.metrics[key] = 1.0 if shape["bit_identical"] else 0.0
            view.policies[key] = {"mode": "exact"}
        if shape.get("speedup") is not None:
            key = format_key("kernel/speedup", labels)
            view.metrics[key] = float(shape["speedup"])
            view.policies[key] = {"mode": "floor"}
        for entry in shape.get("entries", ()):
            entry_labels = dict(labels, backend=entry.get("backend", ""))
            for stat, mode in (("events_executed", "exact"),
                               ("events_per_second", "info"),
                               ("wall_seconds", "info")):
                value = entry.get(stat)
                if value is None:
                    continue
                key = format_key(f"kernel/{stat}", entry_labels)
                view.metrics[key] = float(value)
                view.policies[key] = {"mode": mode}
    if not view.fingerprint:
        for entry in payload.get("entries", ()):
            if entry.get("state_fingerprint"):
                view.fingerprint = entry["state_fingerprint"]
                break
    return view


def _chaos_view(payload: Mapping) -> BenchView:
    view = BenchView(verb="chaos",
                     fingerprint=_cells_fingerprint(payload))
    view.metrics["chaos/monotonic_p99"] = \
        1.0 if payload.get("monotonic_p99") else 0.0
    view.policies["chaos/monotonic_p99"] = {"mode": "exact"}
    for cell in payload.get("cells", ()):
        labels = {"preset": cell.get("preset", ""),
                  "rber": format(cell.get("rber", 0.0), "g")}
        failed_key = format_key("chaos/failed", labels)
        view.metrics[failed_key] = 1.0 if cell.get("failed") else 0.0
        view.policies[failed_key] = {"mode": "exact"}
        if cell.get("failed"):
            continue
        for stat in ("service_p99_ns", "service_mean_ns",
                     "throughput_jobs_per_s"):
            if cell.get(stat) is not None:
                view.metrics[format_key(f"chaos/{stat}", labels)] = \
                    float(cell[stat])
        for counter, value in (cell.get("fault_counters") or {}).items():
            key = format_key(f"chaos/{counter.replace('.', '/')}", labels)
            view.metrics[key] = float(value)
            view.policies[key] = {"mode": "info"}
    return view


def _writes_view(payload: Mapping) -> BenchView:
    view = BenchView(verb="writes",
                     fingerprint=_cells_fingerprint(payload))
    view.metrics["writes/policy_order_ok"] = \
        1.0 if payload.get("policy_order_ok") else 0.0
    view.policies["writes/policy_order_ok"] = {"mode": "exact"}
    for cell in payload.get("cells", ()):
        labels = {"preset": cell.get("preset", ""),
                  "policy": cell.get("policy", ""),
                  "ratio": format(cell.get("write_ratio", 0.0), "g")}
        failed_key = format_key("writes/failed", labels)
        view.metrics[failed_key] = 1.0 if cell.get("failed") else 0.0
        view.policies[failed_key] = {"mode": "exact"}
        if cell.get("failed"):
            continue
        # Event counts and the WA ratios they derive are deterministic
        # per seed, so any drift is a behavior change worth flagging.
        for stat in ("host_writes", "device_writes", "app_writes",
                     "admission_rejects", "writeback_elided",
                     "gc_migrated_pages", "gc_erases",
                     "wa_factor", "flash_writes_per_app_write"):
            if cell.get(stat) is not None:
                key = format_key(f"writes/{stat}", labels)
                view.metrics[key] = float(cell[stat])
                view.policies[key] = {"mode": "exact"}
        # Latency/throughput/lifetime figures are recorded but never
        # gated — they move with any timing tweak elsewhere.
        for stat in ("service_p99_ns", "service_mean_ns",
                     "throughput_jobs_per_s", "lifetime_years"):
            if cell.get(stat) is not None:
                key = format_key(f"writes/{stat}", labels)
                view.metrics[key] = float(cell[stat])
                view.policies[key] = {"mode": "info"}
    return view


def _loadgen_view(payload: Mapping) -> BenchView:
    view = BenchView(verb="loadgen",
                     fingerprint=_cells_fingerprint(payload))
    view.metrics["loadgen/monotonic_p99"] = \
        1.0 if payload.get("monotonic_p99") else 0.0
    view.policies["loadgen/monotonic_p99"] = {"mode": "exact"}
    if payload.get("saturation_qps") is not None:
        view.metrics["loadgen/saturation_qps"] = \
            float(payload["saturation_qps"])
    for knee in payload.get("knees", ()):
        labels = {"preset": knee.get("preset", "")}
        for stat in ("sustained_qps", "sustained_fraction_of_dram"):
            if knee.get(stat) is not None:
                view.metrics[format_key(f"loadgen/{stat}", labels)] = \
                    float(knee[stat])
    for cell in payload.get("cells", ()):
        labels = {"preset": cell.get("preset", ""),
                  "qps": format(cell.get("offered_qps", 0.0), "g")}
        for stat in ("p99_us", "achieved_qps", "backlog_fraction"):
            if cell.get(stat) is not None:
                view.metrics[format_key(f"loadgen/{stat}", labels)] = \
                    float(cell[stat])
    return view


def _sweep_view(payload: Mapping) -> BenchView:
    view = BenchView(verb="bench-sweep")
    for stat in ("wall_seconds_snapshots_off", "wall_seconds_snapshots_cold",
                 "wall_seconds_snapshots_on", "speedup"):
        if payload.get(stat) is not None:
            key = f"sweep/{stat}"
            view.metrics[key] = float(payload[stat])
            view.policies[key] = {"mode": "info"}
    return view


def _profile_view(payload: Mapping) -> BenchView:
    view = BenchView(verb="profile")
    for stat in ("events_executed", "events_per_second", "total_calls",
                 "wall_seconds", "warm_wall_seconds", "scalar_fallbacks"):
        if payload.get(stat) is not None:
            key = f"profile/{stat}"
            view.metrics[key] = float(payload[stat])
            view.policies[key] = {"mode": "info"}
    for reason, count in sorted(
            (payload.get("fallback_reasons") or {}).items()):
        key = format_key("profile/fallbacks",
                         {"reason": reason.replace(",", ";")})
        view.metrics[key] = float(count)
        view.policies[key] = {"mode": "info"}
    return view


def bench_view(payload: Mapping) -> BenchView:
    """Project any recognized ``BENCH_*``/``PROFILE_*`` payload onto
    the namespace; raises :class:`ReproError` for foreign JSON."""
    if "ops_per_job" in payload and "entries" in payload:
        return _kernel_view(payload)
    if "rber_points" in payload:
        return _chaos_view(payload)
    if "write_ratio_points" in payload:
        return _writes_view(payload)
    if "knees" in payload:
        return _loadgen_view(payload)
    if "wall_seconds_snapshots_off" in payload:
        return _sweep_view(payload)
    if "hotspots" in payload:
        return _profile_view(payload)
    raise ReproError(
        "unrecognized bench payload (expected one of the BENCH_kernel/"
        "BENCH_sweep/BENCH_chaos/BENCH_loadgen/BENCH_writes/PROFILE_* "
        "schemas)"
    )
