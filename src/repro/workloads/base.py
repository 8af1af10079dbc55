"""Workload and job abstractions.

A *job* is one client request (a database transaction, a lookup, ...).
Executing a job produces a sequence of steps, each a plain
``(compute_ns, page, is_write)`` tuple: a compute segment (time the
core spends before the next memory access that reaches DRAM) followed
by one page access.  The core loop iterates ``job.steps`` and unpacks
each step; when a step's page misses the DRAM cache the thread halts
and the same step is replayed after the refill.

Step generators are lazy on purpose: steps of concurrently running
jobs interleave their draws on the workload's shared random streams
(and Silo's OCC leaf versions), so drawing a job's steps eagerly would
change every multi-core and multiplexed run.

Workloads own their data structures and produce jobs; they also declare
the knobs the core model needs (typical ROB occupancy for the flush
penalty — TPCC's compute-heavy window makes flushes costlier,
Sec. VI-A).

A workload object is a *dataset* that no run changes (index
structures, page layout, Zipf CDF tables) plus a *session*: the step
RNG, the job counter, the Zipf samplers' streams and the other state a
run mutates.  :meth:`Workload.session` copies an object with a fresh
session over the same dataset, so one build serves many runs.
"""

from __future__ import annotations

import copy
import random
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import WorkloadError

#: One compute segment followed by one memory access:
#: ``(compute_ns, page, is_write)``.
Step = Tuple[float, int, bool]
#: An index lookup: the key's value page (None if absent) and the page
#: path the walk touched, root first.
Lookup = Tuple[Optional[int], Tuple[int, ...]]


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

    def __repr__(self) -> str:
        return f"<Job {self.workload_name}#{self.job_id}>"


class Workload:
    """Base class for the evaluated applications."""

    #: Registry name; subclasses override.
    name = "base"
    #: Typical ROB occupancy when a miss signal flushes the pipeline.
    rob_occupancy = 64.0
    #: Whether building the dataset draws from the seed; when not, one
    #: dataset serves every seed.
    seeded_dataset = False
    #: The Zipf samplers, as ``(attribute, seed offset)``: each shares
    #: its CDF table with the dataset and draws its own stream.
    samplers: Tuple[Tuple[str, int], ...] = (("_zipf", 1),)
    #: The other attributes a run mutates, with their values at
    #: construction.
    run_state: Dict[str, Any] = {}

    def __init__(self, dataset_pages: int, seed: int = 42) -> None:
        if dataset_pages < 1:
            raise WorkloadError("dataset needs at least one page")
        self.dataset_pages = dataset_pages
        self._start_session(seed)

    def _start_session(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        # Bound method, drawn once per generated step: producers jitter
        # a compute segment as ``mean_ns * (0.5 + rng_random())``, the
        # bit-identical inlining of ``mean_ns * uniform(0.5, 1.5)`` (the
        # stdlib computes ``0.5 + (1.5 - 0.5) * random()``, and the span
        # is exactly 1.0).
        self._rng_random = self._rng.random
        self._next_job_id = 0
        self.__dict__.update(copy.deepcopy(self.run_state))

    # -- sessions -----------------------------------------------------------

    def session(self, seed: int) -> "Workload":
        """A copy sharing this object's dataset, with a fresh session that
        draws exactly what a workload constructed with ``seed`` would (a
        :attr:`seeded_dataset` serves only its own seed)."""
        session = copy.copy(self)
        session._start_session(seed)
        for attr, offset in self.samplers:
            setattr(session, attr, getattr(self, attr).fork(seed + offset))
        return session

    def dump_session(self) -> tuple:
        """The session state so far, without the dataset."""
        return (self._rng.getstate(), self._next_job_id,
                [getattr(self, attr).getstate() for attr, _ in self.samplers],
                {attr: getattr(self, attr) for attr in self.run_state})

    def load_session(self, state: tuple) -> None:
        """Resume a fresh session where :meth:`dump_session` left one
        of the same seed."""
        rng_state, self._next_job_id, streams, run_state = state
        self._rng.setstate(rng_state)
        for (attr, _), stream in zip(self.samplers, streams):
            getattr(self, attr).setstate(stream)
        self.__dict__.update(run_state)

    # -- job production -----------------------------------------------------

    def make_job(self) -> Job:
        """Create one request (thread-safe within the single-threaded
        simulation)."""
        job_id = self._next_job_id
        self._next_job_id += 1
        return Job(job_id, self.name, self._steps_for_job(job_id))

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        raise NotImplementedError
