"""Run records and the run ledger: one JSONL line per CLI invocation.

:class:`RunRecord` is the one artifact schema.  Every measuring verb
(``report``, ``profile``, ``chaos``, ``writes``, ``loadgen``,
``simulate``) appends one to
``.repro_runs/ledger.jsonl`` — the persistent perf trajectory that
``repro history``/``diff``/``regress``/``dashboard`` read — and
``--json PATH`` writes the same record to a file (committed baselines
are such files).  The ledger is observability, not a result store:
appends are best-effort (IO failures warn, never fail the verb) and
can be disabled wholesale with ``REPRO_LEDGER=0``.

Determinism contract: a record's identity (``record_id``) is the
digest of its *normalized* payload — every field except the
wall-clock ones (:data:`WALL_FIELDS`) and the host-dependent artifact
paths.  Two identical-seed runs of the same source tree therefore
produce identical normalized records and identical ids, which is what
lets ``repro diff`` certify "nothing moved" and the tests pin
round-trip determinism.
"""

from __future__ import annotations

import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ReproError
from repro.jsonutil import dumps as json_dumps, loads as json_loads

#: Bump when the JSONL layout of :class:`RunRecord` changes so ledger
#: consumers can detect incompatible lines.  v2 added ``policies`` and
#: ``detail``; older lines still load with both empty.
LEDGER_SCHEMA_VERSION = 2

#: Wall-clock / host-dependent record fields, excluded from the
#: normalized payload (and so from ``record_id`` and ``repro diff``'s
#: determinism check).
WALL_FIELDS = ("wall_seconds", "events_per_second", "timestamp")

#: Environment switches: directory override and global disable.
DIR_ENV_VAR = "REPRO_RUNS_DIR"
ENABLE_ENV_VAR = "REPRO_LEDGER"

LEDGER_FILENAME = "ledger.jsonl"


def ledger_enabled() -> bool:
    """False when ``REPRO_LEDGER`` is set to an off value."""
    return os.environ.get(ENABLE_ENV_VAR, "1").strip().lower() \
        not in ("0", "false", "no", "off")


def default_runs_dir() -> Path:
    """``$REPRO_RUNS_DIR`` or ``.repro_runs`` in the working
    directory."""
    return Path(os.environ.get(DIR_ENV_VAR, ".repro_runs"))


def ledger_path(path: Optional[os.PathLike] = None) -> Path:
    if path is not None:
        return Path(path)
    return default_runs_dir() / LEDGER_FILENAME


@dataclass
class RunRecord:
    """One run: what ran, on what source, what it measured, how each
    metric gates, and the verb's full typed result."""

    verb: str
    experiment: str = ""
    preset: str = ""
    workload: str = ""
    scale: str = ""
    seed: int = 0
    source_digest: str = ""
    fingerprint: str = ""
    #: Rendered registry keys (see repro.metrics.registry) -> values.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Key -> gate policy (registry.POLICY_MODES) for the metrics that
    #: carry one; ``repro regress`` gates with the baseline's.
    policies: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: The verb's typed result as a dict (cells, curves, hotspots):
    #: what the dashboard panels render.
    detail: Dict[str, object] = field(default_factory=dict)
    wall_seconds: float = 0.0
    events_per_second: float = 0.0
    timestamp: str = ""
    artifacts: List[str] = field(default_factory=list)
    schema_version: int = LEDGER_SCHEMA_VERSION
    record_id: str = ""

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunRecord":
        known = {name for name in cls.__dataclass_fields__}
        kwargs = {key: value for key, value in payload.items()
                  if key in known}
        kwargs.setdefault("verb", "")
        return cls(**kwargs)

    def normalized(self) -> Dict[str, object]:
        """The record minus wall fields, artifact paths and the id —
        the comparison (and ``record_id``) surface."""
        payload = self.to_dict()
        for name in WALL_FIELDS + ("artifacts", "record_id"):
            payload.pop(name, None)
        return payload

    def compute_id(self) -> str:
        canonical = json_dumps(self.normalized(), indent=None)
        return sha256(canonical.encode()).hexdigest()[:12]

    def label(self) -> str:
        """Compact human identity for diff/history output."""
        parts = [self.record_id or "-", self.verb]
        if self.experiment:
            parts.append(self.experiment)
        if self.preset or self.workload:
            parts.append(f"{self.preset or '*'}/{self.workload or '*'}")
        return " ".join(parts)


def make_record(verb: str, *, experiment: str = "", preset: str = "",
                workload: str = "", scale: str = "",
                seed: int = 0, metrics: Optional[Dict[str, float]] = None,
                policies: Optional[Mapping[str, Dict[str, object]]] = None,
                detail: Optional[Dict[str, object]] = None,
                fingerprint: str = "", wall_seconds: float = 0.0,
                events_per_second: float = 0.0,
                artifacts: Sequence[str] = ()) -> RunRecord:
    """Build a fully-stamped record (source digest, timestamp, id)."""
    from repro.snapshot import source_digest  # deferred: walks the tree once

    record = RunRecord(
        verb=verb,
        experiment=experiment,
        preset=preset,
        workload=workload,
        scale=scale,
        seed=int(seed),
        source_digest=source_digest(),
        fingerprint=fingerprint,
        metrics=dict(metrics or {}),
        policies=dict(policies or {}),
        detail=dict(detail or {}),
        wall_seconds=float(wall_seconds),
        events_per_second=float(events_per_second),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        artifacts=[str(item) for item in artifacts],
    )
    record.record_id = record.compute_id()
    return record


def append_record(record: RunRecord,
                  path: Optional[os.PathLike] = None) -> Optional[Path]:
    """Append one JSONL line; returns the path, or None when disabled."""
    if not ledger_enabled():
        return None
    target = ledger_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(json_dumps(record.to_dict(), indent=None) + "\n")
    return target


def write_record(record: RunRecord, path: os.PathLike) -> None:
    """``--json PATH``: the record as one indented JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json_dumps(record.to_dict()) + "\n")


def read_ledger(path: Optional[os.PathLike] = None) -> List[RunRecord]:
    """Every parseable record, oldest first; a missing ledger is empty.

    Malformed lines (a truncated append, hand edits) are skipped rather
    than poisoning every history/diff invocation after them — but never
    silently: a skipped newest line means ``regress`` gates an older
    record, so the count goes to stderr.
    """
    target = ledger_path(path)
    if not target.is_file():
        return []
    records: List[RunRecord] = []
    skipped = 0
    with open(target, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json_loads(line)
            except ValueError:
                payload = None
            if isinstance(payload, dict) and payload.get("verb"):
                records.append(RunRecord.from_dict(payload))
            else:
                skipped += 1
    if skipped:
        print(f"ledger: skipped {skipped} malformed line(s) in {target}",
              file=sys.stderr)
    return records


def filter_records(records: Sequence[RunRecord], verb: str = "",
                   experiment: str = "", preset: str = "",
                   workload: str = "",
                   last: Optional[int] = None) -> List[RunRecord]:
    """Ledger query: equality filters, then keep the newest ``last``
    (a negative count is an error)."""
    selected = [
        record for record in records
        if (not verb or record.verb == verb)
        and (not experiment or record.experiment == experiment)
        and (not preset or record.preset == preset)
        and (not workload or record.workload == workload)
    ]
    if last is not None:
        if last < 0:
            raise ReproError(f"--last must be >= 0, got {last}")
        selected = selected[-last:] if last else []
    return selected


def select_record(records: Sequence[RunRecord], selector: str) -> RunRecord:
    """Resolve a ``repro diff`` selector against the ledger.

    Accepts a ledger index (``0`` oldest, ``-1`` newest), a
    ``record_id`` prefix (the newest line carrying that id), or a path
    to a :class:`RunRecord` JSON file.
    """
    try:
        index = int(selector)
    except ValueError:
        pass
    else:
        try:
            return records[index]
        except IndexError:
            raise ReproError(
                f"ledger index {index} out of range "
                f"({len(records)} records)"
            ) from None
    matches = [record for record in records
               if record.record_id.startswith(selector)]
    # Identical runs share one content-hash id: their newest line is
    # the record.  A prefix of two different ids stays ambiguous.
    ids = {record.record_id for record in matches}
    if len(ids) == 1:
        return matches[-1]
    if len(ids) > 1:
        raise ReproError(
            f"record id prefix {selector!r} is ambiguous "
            f"({len(ids)} record ids)"
        )
    if os.path.isfile(selector):
        return record_from_file(selector)
    raise ReproError(
        f"no ledger record matches {selector!r} (not an index, id "
        "prefix, or readable JSON file)"
    )


def record_from_file(path: os.PathLike) -> RunRecord:
    """The :class:`RunRecord` a verb's ``--json`` wrote to ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json_loads(handle.read())
        except ValueError as exc:
            raise ReproError(f"{path}: not valid JSON ({exc})") from None
    if not (isinstance(payload, dict) and payload.get("verb")
            and isinstance(payload.get("metrics"), dict)):
        raise ReproError(
            f"{path}: not a run record (expected the --json output of "
            "a measuring verb)")
    return RunRecord.from_dict(payload)
