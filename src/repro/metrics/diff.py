"""Cross-run comparison: per-metric deltas, verdicts, and the CI gate.

``repro diff A B`` compares two ledger records metric-by-metric and
classifies every delta:

* ``within-noise`` — relative change inside the threshold (or an
  ``info``-policy metric, which is never gated);
* ``regression`` / ``improvement`` — a thresholded move in a metric
  whose direction is known (lower-is-better for latencies/stalls,
  higher-is-better for throughputs);
* ``changed`` — a thresholded move with no known direction (counters
  whose drift is worth a look but not a verdict);
* ``added`` / ``removed`` — the metric exists on one side only.

``repro regress --baseline FILE`` runs the same engine against a
*committed* baseline (a verb's ``--json`` record) and collapses the
verdicts into a pass/fail exit code — the one place CI's gates live.
Every comparison uses the baseline record's per-metric policies
(``exact``/``relative``/``info``, see
:mod:`repro.metrics.registry`); metrics without one fall back to the
direction heuristics below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.errors import ReproError
from repro.metrics.ledger import RunRecord, read_ledger, record_from_file
from repro.metrics.registry import parse_key

#: Default relative-change threshold for diff verdicts.
DEFAULT_THRESHOLD = 0.05

#: Substrings marking a metric as lower-is-better (latencies, stalls,
#: error/retry counters, backlog) or higher-is-better (throughputs).
#: First match wins, lower checked first: "p99" beats "throughput" in
#: a name carrying both.
_LOWER_TOKENS = ("_ns", "_us", "p99", "p50", "latency", "miss_ratio",
                 "backlog", "stall", "timeout", "reissue", "retries",
                 "unfinished", "queued_jobs", "inflight", "failed",
                 "uncorrectable", "wall_seconds")
_HIGHER_TOKENS = ("throughput", "jobs_per_s", "events_per_second",
                  "speedup", "sustained", "saturation", "completed",
                  "hits", "monotonic", "qps")


def metric_direction(key: str) -> str:
    """``"lower"``, ``"higher"``, or ``"neutral"`` for a rendered key."""
    name, _ = parse_key(key)
    lowered = name.lower()
    for token in _LOWER_TOKENS:
        if token in lowered:
            return "lower"
    for token in _HIGHER_TOKENS:
        if token in lowered:
            return "higher"
    return "neutral"


@dataclass
class MetricDelta:
    """One metric's movement between baseline and current."""

    key: str
    baseline: Optional[float]
    current: Optional[float]
    verdict: str = "within-noise"
    mode: str = "relative"
    direction: str = "neutral"

    @property
    def delta(self) -> float:
        if self.baseline is None or self.current is None:
            return 0.0
        return self.current - self.baseline

    @property
    def relative(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        if self.baseline == 0.0:
            return None if self.current == 0.0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)

    def format_row(self) -> str:
        base = "-" if self.baseline is None else f"{self.baseline:,.4g}"
        cur = "-" if self.current is None else f"{self.current:,.4g}"
        rel = self.relative
        rel_text = "" if rel is None else f" ({rel:+.1%})"
        return (f"  {self.verdict:<12} {self.key}: "
                f"{base} -> {cur}{rel_text}")


def classify_delta(key: str, baseline: Optional[float],
                   current: Optional[float], threshold: float,
                   policy: Optional[Mapping[str, object]] = None,
                   ) -> MetricDelta:
    """Verdict for one metric under a policy (or the heuristics)."""
    mode = str((policy or {}).get("mode", "relative"))
    direction = metric_direction(key)
    delta = MetricDelta(key=key, baseline=baseline, current=current,
                        mode=mode, direction=direction)
    if baseline is None:
        delta.verdict = "added"
        return delta
    if current is None:
        delta.verdict = "removed"
        return delta
    if mode == "info":
        delta.verdict = "within-noise"
        return delta
    if mode == "exact":
        delta.verdict = "within-noise" if current == baseline \
            else "regression"
        return delta
    relative = delta.relative
    moved = (relative is not None and abs(relative) > threshold) \
        or (relative is None and current != baseline)
    if not moved:
        delta.verdict = "within-noise"
    elif direction == "neutral":
        delta.verdict = "changed"
    else:
        worse = delta.delta > 0 if direction == "lower" \
            else delta.delta < 0
        delta.verdict = "regression" if worse else "improvement"
    return delta


def diff_metric_dicts(baseline: Mapping[str, float],
                      current: Mapping[str, float],
                      threshold: float = DEFAULT_THRESHOLD,
                      policies: Optional[Mapping[str, Mapping]] = None,
                      ) -> List[MetricDelta]:
    policies = policies or {}
    keys = list(baseline) + [key for key in current if key not in baseline]
    return [
        classify_delta(key, baseline.get(key), current.get(key),
                       threshold, policies.get(key))
        for key in keys
    ]


@dataclass
class DiffReport:
    """Every verdict from one baseline/current comparison."""

    baseline_label: str
    current_label: str
    threshold: float
    deltas: List[MetricDelta] = field(default_factory=list)
    #: None when either side carries no fingerprint.
    fingerprint_match: Optional[bool] = None

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "regression"]

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for delta in self.deltas:
            counts[delta.verdict] = counts.get(delta.verdict, 0) + 1
        return counts

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "baseline": self.baseline_label,
            "current": self.current_label,
            "threshold": self.threshold,
            "fingerprint_match": self.fingerprint_match,
            "counts": self.counts(),
            "deltas": [
                {"key": d.key, "baseline": d.baseline,
                 "current": d.current, "verdict": d.verdict,
                 "mode": d.mode, "direction": d.direction}
                for d in self.deltas
            ],
        }

    def format_text(self, show_all: bool = False) -> str:
        counts = self.counts()
        summary = ", ".join(
            f"{counts[name]} {name}" for name in
            ("regression", "improvement", "changed", "added", "removed",
             "within-noise") if counts.get(name)
        ) or "no metrics compared"
        lines = [
            f"diff: {self.baseline_label} -> {self.current_label} "
            f"(threshold {self.threshold:.0%})",
            f"  {summary}",
        ]
        if self.fingerprint_match is not None:
            lines.append("  fingerprints: "
                         + ("EQUAL" if self.fingerprint_match
                            else "DIVERGED"))
        for delta in self.deltas:
            if show_all or delta.verdict not in ("within-noise",):
                lines.append(delta.format_row())
        return "\n".join(lines)


def diff_records(baseline: RunRecord, current: RunRecord,
                 threshold: float = DEFAULT_THRESHOLD) -> DiffReport:
    """Every metric's verdict under the *baseline's* policies."""
    report = DiffReport(
        baseline_label=baseline.label(),
        current_label=current.label(),
        threshold=threshold,
        deltas=diff_metric_dicts(baseline.metrics, current.metrics,
                                 threshold, baseline.policies),
    )
    if baseline.fingerprint and current.fingerprint:
        report.fingerprint_match = \
            baseline.fingerprint == current.fingerprint
    return report


# ------------------------------------------------------ regression gate --


@dataclass
class RegressReport:
    """Machine-readable pass/fail against a committed baseline."""

    passed: bool
    diff: DiffReport
    reason: str = ""

    def to_json_dict(self) -> Dict[str, object]:
        payload = self.diff.to_json_dict()
        payload["passed"] = self.passed
        payload["reason"] = self.reason
        return payload

    def format_text(self) -> str:
        lines = [self.diff.format_text()]
        if self.reason:
            lines.append(f"  {self.reason}")
        lines.append(f"REGRESS {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_regress(baseline_path: os.PathLike,
                current_path: Optional[os.PathLike] = None,
                ledger: Optional[os.PathLike] = None,
                threshold: float = DEFAULT_THRESHOLD) -> RegressReport:
    """The ``repro regress`` engine.

    ``current_path`` names a record file to gate; without it the
    newest ledger record whose verb matches the baseline's is gated
    (so CI can bench, append, and regress in three commands).  Raises
    :class:`ReproError` when either side cannot be resolved or is not
    a record — the CLI maps that to exit code 2, distinct from a
    failing gate (1).
    """
    if not os.path.isfile(baseline_path):
        raise ReproError(f"baseline {baseline_path} does not exist")
    baseline = record_from_file(baseline_path)

    if current_path is not None:
        if not os.path.isfile(current_path):
            raise ReproError(f"current run {current_path} does not exist")
        current = record_from_file(current_path)
    else:
        records = read_ledger(ledger)
        candidates = [record for record in records
                      if not baseline.verb or record.verb == baseline.verb]
        if not candidates:
            raise ReproError(
                f"no ledger record with verb {baseline.verb!r} to gate "
                "(run the bench first, or pass --current)"
            )
        current = candidates[-1]

    diff = diff_records(baseline, current, threshold=threshold)
    reason = ""
    passed = not diff.regressions
    if diff.fingerprint_match is False:
        passed = False
        reason = "state fingerprint diverged from the baseline"
    elif diff.regressions:
        reason = (f"{len(diff.regressions)} metric(s) regressed beyond "
                  "policy")
    return RegressReport(passed=passed, diff=diff, reason=reason)
