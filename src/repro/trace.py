"""Page-trace capture and replay.

Tooling for working with workload access traces outside the full
simulator:

* :class:`TraceRecorder` — capture ``(compute_ns, page, is_write)``
  steps from any workload into memory or a file (one CSV line per
  step, ``#``-prefixed header);
* :class:`TraceWorkload` — replay a captured trace through the
  simulator as a regular workload (jobs re-cut to a fixed step count);
* :func:`trace_statistics` — footprint/skew/write-ratio summary used
  by the capacity-planning flow.

Traces make experiments reproducible across library versions and let
users study proprietary access patterns without sharing the workload
that produced them — record once, replay anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, TextIO, Union

from repro.errors import WorkloadError
from repro.workloads.base import Step, Workload

TRACE_HEADER = "# repro-trace-v1: compute_ns,page,is_write"


class TraceRecorder:
    """Capture steps from a workload."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.steps: List[Step] = []

    def record(self, num_steps: int) -> List[Step]:
        """Run jobs until ``num_steps`` steps are captured."""
        if num_steps < 1:
            raise WorkloadError("need at least one step")
        while len(self.steps) < num_steps:
            self.steps.extend(self.workload.make_job().steps)
        del self.steps[num_steps:]
        return self.steps

    def save(self, target: Union[str, TextIO]) -> int:
        """Write the captured trace; returns the number of steps."""
        if isinstance(target, str):
            with open(target, "w") as handle:
                return self.save(handle)
        target.write(TRACE_HEADER + "\n")
        for compute_ns, page, is_write in self.steps:
            target.write(f"{compute_ns:.3f},{page},{1 if is_write else 0}\n")
        return len(self.steps)


def load_trace(source: Union[str, TextIO]) -> List[Step]:
    """Read a trace written by :meth:`TraceRecorder.save`."""
    if isinstance(source, str):
        with open(source) as handle:
            return load_trace(handle)
    first = source.readline()
    if first == "":
        raise WorkloadError("empty trace file (expected header "
                            f"{TRACE_HEADER!r})")
    first = first.strip()
    if first != TRACE_HEADER:
        raise WorkloadError(f"not a repro trace (header {first!r})")
    steps: List[Step] = []
    for line_number, line in enumerate(source, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue  # blank/trailing newlines and comments are fine
        parts = line.split(",")
        if len(parts) != 3:
            raise WorkloadError(f"malformed trace line {line_number}: {line!r}")
        compute, page, write = parts
        if write not in ("0", "1"):
            raise WorkloadError(
                f"malformed trace line {line_number}: is_write must be "
                f"0 or 1, got {write!r}")
        try:
            steps.append((float(compute), int(page), write == "1"))
        except ValueError:
            raise WorkloadError(
                f"malformed trace line {line_number}: {line!r}") from None
    return steps


class TraceWorkload(Workload):
    """Replay a captured trace as a workload.

    The trace is cut into jobs of ``steps_per_job`` steps; when the
    trace is exhausted it wraps around, so the workload can drive
    arbitrarily long simulations.
    """

    name = "trace-replay"

    def __init__(self, steps: List[Step], steps_per_job: int = 48,
                 dataset_pages: Optional[int] = None, seed: int = 42) -> None:
        if not steps:
            raise WorkloadError("empty trace")
        if steps_per_job < 1:
            raise WorkloadError("steps_per_job must be positive")
        if dataset_pages is None:
            dataset_pages = max(page for _, page, _ in steps) + 1
        super().__init__(dataset_pages, seed)
        self._trace = steps
        self.steps_per_job = steps_per_job
        self._cursor = 0

    @classmethod
    def from_file(cls, path: str, **kwargs) -> "TraceWorkload":
        return cls(load_trace(path), **kwargs)

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        # Steps are immutable tuples: yield the stored ones, no copy.
        for _ in range(self.steps_per_job):
            step = self._trace[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._trace)
            yield step


@dataclass(frozen=True)
class TraceStatistics:
    """Summary of a page trace."""

    num_steps: int
    distinct_pages: int
    write_fraction: float
    mean_compute_ns: float
    top_decile_access_share: float


def trace_statistics(steps: Iterable[Step]) -> TraceStatistics:
    """Footprint/skew summary of a trace."""
    from collections import Counter

    counts: Counter = Counter()
    writes = 0
    compute_total = 0.0
    num_steps = 0
    for compute_ns, page, is_write in steps:
        counts[page] += 1
        writes += is_write
        compute_total += compute_ns
        num_steps += 1
    if num_steps == 0:
        raise WorkloadError("empty trace")
    hottest = sorted(counts.values(), reverse=True)
    top_k = max(1, len(hottest) // 10)
    top_share = sum(hottest[:top_k]) / num_steps
    return TraceStatistics(
        num_steps=num_steps,
        distinct_pages=len(counts),
        write_fraction=writes / num_steps,
        mean_compute_ns=compute_total / num_steps,
        top_decile_access_share=top_share,
    )
