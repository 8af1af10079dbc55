"""Unified metrics registry: one labeled namespace for every stat.

The simulator's observability surface grew organically — counters in
:class:`repro.stats.CounterSet` bags, latency percentiles as
``SimulationResult`` fields, GC/wear figures living on the machine,
and the measuring verbs' typed results.  This module folds all of
them into a single flat namespace:

    ``subsystem/name{label=value,...}`` -> float

Labels are the cross-cutting dimensions every comparison tool needs
(``preset``, ``workload``, ``core``, plus sweep axes like
``rber``/``qps``), rendered into the key in sorted order so the same
metric always serializes to the same string.  The rendered keys are
what the run ledger stores and ``repro diff``/``repro regress``
compare — plain ``Dict[str, float]`` on the wire, structured
:class:`Metric` objects in memory.

A sample may carry a *gate policy* (:data:`POLICY_MODES`) that drives
its regression verdict in :mod:`repro.metrics.diff`; each measuring
verb's ``record()`` attaches them, and they travel in the
:class:`~repro.metrics.ledger.RunRecord` next to the metrics.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.jsonutil import dumps as json_dumps

#: The canonical label dimensions (sweep adapters may add axis labels
#: such as ``rber`` or ``qps`` on top).
METRIC_LABELS = ("preset", "workload", "core")

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


#: Gate-policy modes understood by repro.metrics.diff: ``exact`` (any
#: change is a regression), ``relative`` (directional, thresholded;
#: also the default for a key without a policy) and ``info``
#: (recorded, never gated).
POLICY_MODES = ("exact", "relative", "info")

EXACT: Mapping[str, object] = {"mode": "exact"}
INFO: Mapping[str, object] = {"mode": "info"}


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
    counter-restore semantics elsewhere in the repo).  Its ``gate``
    keyword attaches a gate policy to the key (``policy`` is taken: it
    is a label on ``writes/*`` metrics).
    """

    def __init__(self, metrics: Iterable[Metric] = ()) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._policies: Dict[str, Dict[str, object]] = {}
        for metric in metrics:
            self._metrics[metric.key()] = metric

    def add(self, name: str, value: float,
            gate: Optional[Mapping[str, object]] = None,
            **labels: str) -> None:
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
        key = metric.key()
        self._metrics[key] = metric
        if gate is not None:
            self._policies[key] = dict(gate)

    def merge(self, other: "MetricSet") -> None:
        for metric in other:
            self._metrics[metric.key()] = metric
        self._policies.update(other.policies())

    def get(self, key: str) -> Optional[float]:
        metric = self._metrics.get(key)
        return metric.value if metric is not None else None

    def filter(self, prefix: str) -> "MetricSet":
        """Metrics whose name starts with ``prefix`` (e.g. "flash/")."""
        kept = MetricSet(m for m in self if m.name.startswith(prefix))
        kept._policies = {key: policy for key, policy
                          in self._policies.items() if key in kept}
        return kept

    def as_dict(self) -> Dict[str, float]:
        """The wire form: rendered key -> value, insertion-ordered."""
        return {key: metric.value for key, metric in self._metrics.items()}

    def policies(self) -> Dict[str, Dict[str, object]]:
        """Rendered key -> gate policy, for the keys that carry one."""
        return {key: dict(policy) for key, policy in self._policies.items()}

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    def __repr__(self) -> str:
        return f"<MetricSet {len(self)} metrics>"


# -------------------------------------------------- simulation adapters --

def metrics_from_result(result) -> "MetricSet":
    """Project one ``SimulationResult`` onto the registry namespace.

    Scalar result fields land under ``runner/``; the counters dict is
    split on its dotted prefixes (``engine.compactions`` ->
    ``engine/compactions``).  Wall-clock fields are excluded — they
    belong on the :class:`~repro.metrics.ledger.RunRecord` itself, so
    the metrics mapping of two identical-seed runs is bit-identical.
    """
    from repro.core.runner import RESULT_WALL_FIELDS  # deferred: heavy

    labels = {"preset": result.config_name,
              "workload": result.workload_name}
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
    for key, value in flash.gc.stats.items():
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
    return metrics.as_dict(), payload_digest(canonical)


def payload_digest(payload: object) -> str:
    """16-hex sha256 of a JSON-able payload's compact JSON form."""
    return hashlib.sha256(
        json_dumps(payload, indent=None).encode()
    ).hexdigest()[:16]
