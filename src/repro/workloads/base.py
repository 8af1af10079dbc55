"""Workload and job abstractions.

A *job* is one client request (a database transaction, a lookup, ...).
Executing a job produces a sequence of :class:`Step` objects: a compute
segment (cycles the core spends before the next memory access that
reaches DRAM) followed by one page access.  The core loop advances
through the steps; when a step's page misses the DRAM cache the thread
halts and the same step is replayed after the refill.

Workloads own their data structures and produce jobs; they also declare
the knobs the core model needs (typical ROB occupancy for the flush
penalty — TPCC's compute-heavy window makes flushes costlier,
Sec. VI-A).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.errors import WorkloadError


class Step:
    """One compute segment followed by one memory access."""

    __slots__ = ("compute_ns", "page", "is_write")

    def __init__(self, compute_ns: float, page: int, is_write: bool = False):
        self.compute_ns = compute_ns
        self.page = page
        self.is_write = is_write

    def __repr__(self) -> str:
        rw = "W" if self.is_write else "R"
        return f"<Step {self.compute_ns:.0f}ns {rw} page={self.page}>"


class Job:
    """One request: an iterator of steps plus latency bookkeeping."""

    __slots__ = ("job_id", "workload_name", "steps", "arrived_at",
                 "started_at", "finished_at", "queue_latency_ns",
                 "service_latency_ns", "misses")

    def __init__(self, job_id: int, workload_name: str,
                 steps: Iterator[Step]) -> None:
        self.job_id = job_id
        self.workload_name = workload_name
        self.steps = steps
        self.arrived_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.queue_latency_ns: Optional[float] = None
        self.service_latency_ns: Optional[float] = None
        self.misses = 0

    def next_step(self) -> Optional[Step]:
        """The next step, or None when the job is done."""
        return next(self.steps, None)

    @property
    def response_latency_ns(self) -> float:
        """Queueing + service (the client-observed latency)."""
        if self.finished_at is None or self.arrived_at is None:
            raise WorkloadError("job not finished")
        return self.finished_at - self.arrived_at

    def __repr__(self) -> str:
        return f"<Job {self.workload_name}#{self.job_id}>"


class Workload:
    """Base class for the evaluated applications."""

    #: Registry name; subclasses override.
    name = "base"
    #: Typical ROB occupancy when a miss signal flushes the pipeline.
    rob_occupancy = 64.0

    def __init__(self, dataset_pages: int, seed: int = 42) -> None:
        if dataset_pages < 1:
            raise WorkloadError("dataset needs at least one page")
        self.dataset_pages = dataset_pages
        self.seed = seed
        self._rng = random.Random(seed)
        # Bound method: _compute runs once per generated step.
        self._rng_random = self._rng.random
        self._next_job_id = 0

    # -- job production -----------------------------------------------------

    def make_job(self) -> Job:
        """Create one request (thread-safe within the single-threaded
        simulation)."""
        job_id = self._next_job_id
        self._next_job_id += 1
        return Job(job_id, self.name, self._steps_for_job(job_id))

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        raise NotImplementedError

    # -- calibration helpers -------------------------------------------------

    def _compute(self, mean_ns: float) -> float:
        """A jittered compute segment (uniform +-50% around the mean).

        Inlined ``uniform(0.5, 1.5)``: with these bounds the stdlib
        computes ``0.5 + (1.5 - 0.5) * random()`` where the span is
        exactly 1.0, so ``0.5 + random()`` consumes the same draw and
        yields the same bits — one call frame cheaper on the hottest
        workload path.
        """
        return mean_ns * (0.5 + self._rng_random())

    def sample_trace(self, num_jobs: int = 32) -> List[Step]:
        """Flat step trace of a few jobs (calibration/tests)."""
        steps: List[Step] = []
        for _ in range(num_jobs):
            job = self.make_job()
            while True:
                step = job.next_step()
                if step is None:
                    break
                steps.append(step)
        return steps

    def average_service_time_ns(self, num_jobs: int = 64) -> float:
        """Sum of compute segments plus nominal DRAM hits per job,
        assuming every access hits (the DRAM-only service time)."""
        total = 0.0
        for _ in range(num_jobs):
            job = self.make_job()
            while True:
                step = job.next_step()
                if step is None:
                    break
                total += step.compute_ns
        return total / num_jobs
