"""Simulation runner: per-core execution loops for all four designs.

The runner executes a workload on a :class:`~repro.core.machine.Machine`
and measures throughput, service latency (dispatch to completion,
including miss waits, excluding job-queue time — the paper's Sec. V-A
definition) and response latency (arrival to completion).

Execution model (see DESIGN.md): jobs are sequences of
compute-then-access steps at DRAM-access granularity.  Compute and
DRAM-cache *hits* are accumulated locally and yielded to the event
engine in ~1 us quanta (hits involve no contention in the model);
every DRAM-cache *miss* runs the full event-driven machinery:
FC -> MSR/BC -> flash -> install -> miss signal -> ROB flush ->
user-level thread switch.

Mode summary:

* ``DRAM_ONLY``  — every access is a flat DRAM access; run to completion.
* ``FLASH_SYNC`` — hardware DRAM cache, but the core blocks on misses
  (FlatFlash); run to completion.
* ``ASTRIFLASH`` — switch-on-miss with the user-level thread library.
* ``OS_SWAP``    — kernel-thread multiplexing with page-fault and
  context-switch costs and shootdown-serialized installs.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, Optional

from repro.config.system import PagingMode, SystemConfig
from repro.core.machine import Machine
from repro.cpu.core import flush_penalty_ns
from repro.errors import ConfigurationError, SimulationError
from repro.obs.telemetry import TelemetrySampler
from repro.obs.tracer import active as _tracer_active
from repro.sim import Signal, observe, spawn
from repro.stats import CounterSet, LatencyTracker, ThroughputTracker, \
    percentile
from repro.ult.queuepair import CompletionQueue
from repro.ult.thread import ThreadState, UserThread
from repro.units import US
from repro.workloads.arrival import ArrivalProcess, ClosedLoop
from repro.workloads.base import Job, Workload

# Compute/hit time is accumulated locally and yielded in quanta of this
# size, bounding how far a flash fetch can start ahead of its logical
# issue point.
TIME_QUANTUM_NS = 1_000.0

# A synchronous waiter can lose the race between a refill's install and
# its own wakeup (the page may be evicted in between); the replay then
# misses again and must wait for a fresh refill.  More than a handful of
# consecutive losses means the set is thrashing pathologically.
REPLAY_RACE_LIMIT = 8

# Seed of the runner's own RNG stream (the TLB-miss draws) when the
# caller passes none.  A run spec's seed drives the workload and the
# arrivals, not this stream.
RUNNER_SEED = 42

# Process-wide warmup-vs-measurement wall-clock split and warm counts,
# accumulated across every Runner in this process (mirrors
# ``repro.sim.engine.total_events_executed``); the report footer prints
# the delta around a report run.
_WALL_TOTALS: Dict[str, float] = {"warm_seconds": 0.0,
                                  "measure_seconds": 0.0,
                                  "fresh_warms": 0.0,
                                  "restored_warms": 0.0}


def wall_split_totals() -> Dict[str, float]:
    """Cumulative in-process wall seconds spent warming vs measuring,
    and the number of fresh and restored warms."""
    return dict(_WALL_TOTALS)


#: SimulationResult fields that depend on the wall clock or warm-state
#: provenance.  Everything else is deterministic: two runs of the same
#: spec match on it bit-for-bit (serial or parallel, restored or fresh
#: warm state).
RESULT_WALL_FIELDS = (
    "events_per_second", "wall_seconds", "warm_wall_seconds", "warm_source",
)


@dataclass
class SimulationResult:
    """Everything a harness needs from one run."""

    config_name: str
    workload_name: str
    throughput_jobs_per_s: float
    completed_jobs: int
    service_p50_ns: float
    service_p99_ns: float
    service_mean_ns: float
    response_p99_ns: Optional[float]
    response_mean_ns: Optional[float]
    miss_ratio: float
    mean_inter_miss_ns: Optional[float]
    core_busy_fraction: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    # Kernel throughput: simulated events executed per wall-clock
    # second for this run (0.0 when the wall time was unmeasurably
    # small).  Not deterministic — excluded from golden comparisons.
    events_per_second: float = 0.0
    # Wall-clock accounting for the run (warmup share vs total) and
    # where the warm state came from: "fresh" (warm_caches ran),
    # "snapshot" (restored via repro.snapshot), or "none" (no warm
    # tier / warm disabled).  Wall fields are not deterministic —
    # excluded from golden and serial-vs-parallel comparisons.
    warm_wall_seconds: float = 0.0
    wall_seconds: float = 0.0
    warm_source: str = "none"
    # Open-loop censoring contract (DESIGN.md §4g): requests still
    # queued or in flight when the measurement window closed are
    # *censored* out of the completed-sample percentiles — exactly the
    # requests that define the tail near the saturation knee.
    # ``unfinished_jobs`` counts them (queued + dispatched-but-live),
    # ``backlog_fraction`` is their share of all requests the window
    # should have accounted for, and
    # ``response_p99_lower_bound_ns`` merges their ages (a lower bound
    # on each one's eventual response latency) back into the sample
    # set — a valid lower bound on the true p99.  Consumers
    # (repro.loadgen) must flag cells whose backlog fraction exceeds
    # their threshold instead of trusting the optimistic window p99.
    unfinished_jobs: int = 0
    inflight_jobs: int = 0
    queued_jobs: int = 0
    backlog_fraction: float = 0.0
    response_p99_lower_bound_ns: Optional[float] = None

    def describe(self) -> str:
        lines = [
            f"{self.config_name} / {self.workload_name}:",
            f"  throughput      {self.throughput_jobs_per_s:,.0f} jobs/s",
            f"  service p50/p99 {self.service_p50_ns / US:.1f} / "
            f"{self.service_p99_ns / US:.1f} us",
            f"  miss ratio      {self.miss_ratio:.2%}",
        ]
        if self.response_p99_ns is not None:
            lines.append(
                f"  response p99    {self.response_p99_ns / US:.1f} us"
            )
        if self.unfinished_jobs:
            lines.append(
                f"  backlog         {self.unfinished_jobs} unfinished "
                f"jobs ({self.backlog_fraction:.1%} of offered)"
            )
        return "\n".join(lines)

    def metrics(self):
        """This result as a labeled :class:`repro.metrics.MetricSet`
        (the unified-registry view, DESIGN.md §4i).  Wall-clock fields
        stay out — they belong on the run-ledger record, so the view
        is deterministic for identical-seed runs."""
        from repro.metrics import metrics_from_result  # deferred: cycle

        return metrics_from_result(self)


def _wake(idle: Dict[int, Optional[Signal]], core_id: int) -> None:
    """Fire the idle signal of core ``core_id`` if the core is parked."""
    signal = idle[core_id]
    if signal is not None and not signal.fired:
        idle[core_id] = None
        signal.fire()


class Runner:
    """Run one (configuration, workload, arrival process) experiment."""

    def __init__(self, config: SystemConfig, workload: Workload,
                 arrivals: Optional[ArrivalProcess] = None,
                 seed: Optional[int] = None,
                 warm: bool = True) -> None:
        self.config = config
        self.workload = workload
        self.arrivals = arrivals if arrivals is not None else ClosedLoop()
        self.machine = Machine(config)
        self.seed = RUNNER_SEED if seed is None else seed
        self._rng = random.Random(self.seed)
        self._warm = warm
        self._warm_source = "none"
        self._warm_wall_seconds = 0.0

        self.service_latency = LatencyTracker(name="service")
        self.response_latency = LatencyTracker(name="response")
        self.throughput = ThroughputTracker(name="jobs")
        self.stats = CounterSet()
        self._rng_random = self._rng.random
        # Observability: bind the active tracer once (None = disabled).
        # Hot paths branch on this local/attribute, never on the
        # module flag.  The job loops look up a sampled job's record
        # once per job (or dispatch) and pay one ``record is not None``
        # test per step.
        self._tracer = _tracer_active()
        # Per-run invariants bound once for the per-access fast paths.
        self._tlb_miss_probability = config.tlb.miss_probability
        self._flat_walk_ns = (config.os.page_table_levels
                              * self.machine.flat_dram_latency_ns)
        self._flush_ns = flush_penalty_ns(config.core, workload.rob_occupancy)

        self._queues: Dict[int, Deque[Job]] = {
            core_id: deque() for core_id in range(config.num_cores)
        }
        # Live-job registry for the censoring contract: a job enters
        # when a core (or thread library) takes it from the queue and
        # leaves in _finish_job.  Jobs still here — or still queued —
        # when the run ends are the requests the measurement window
        # censored.
        self._live_jobs: Dict[int, Job] = {}
        self._idle: Dict[int, Optional[Signal]] = {
            core_id: None for core_id in range(config.num_cores)
        }
        # Queue-pair notifications (Sec. IV-D2): the BC posts page
        # arrivals here; schedulers drain them at scheduling points.
        # The doorbell holds the idle table, not the runner, which
        # holds the queues.
        self._cqs: Dict[int, CompletionQueue] = {}
        for core_id, library in enumerate(self.machine.libraries):
            if library is None:
                continue
            capacity = 2 * library.config.threads_per_core
            self._cqs[core_id] = CompletionQueue(
                core_id, capacity=capacity,
                doorbell=partial(_wake, self._idle, core_id),
            )
        # Miss-interval accounting (Sec. II-A calibration).  The
        # ``_window_*`` snapshots are taken when the measurement window
        # opens so reported ratios exclude warmup traffic.
        self._busy_ns = 0.0
        self._accesses = 0
        self._misses = 0
        self._window_busy_ns = 0.0
        self._window_accesses = 0
        self._window_misses = 0

    # ----------------------------------------------------------------- warm --

    def warm(self, num_steps: Optional[int] = None) -> None:
        """Warm the machine's DRAM tier once (idempotent).

        Split out of :meth:`run` so :mod:`repro.snapshot` can capture
        the warm/measure boundary; times itself into the process-wide
        wall split.
        """
        if not self._warm:
            return
        self._warm = False
        machine = self.machine
        if machine.dram_cache is None and machine.pager is None:
            return  # no warm tier (DRAM-only): stays "none"
        start = time.perf_counter()
        if num_steps is None:
            machine.warm_caches(self.workload)
        else:
            machine.warm_caches(self.workload, num_steps=num_steps)
        self._warm_wall_seconds = time.perf_counter() - start
        self._warm_source = "fresh"
        _WALL_TOTALS["warm_seconds"] += self._warm_wall_seconds
        _WALL_TOTALS["fresh_warms"] += 1.0

    def mark_warm_restored(self, seconds: float) -> None:
        """Record that warm state was loaded from a snapshot (called
        by :func:`repro.snapshot.restore_warm`)."""
        self._warm = False
        self._warm_source = "snapshot"
        self._warm_wall_seconds = seconds
        _WALL_TOTALS["warm_seconds"] += seconds
        _WALL_TOTALS["restored_warms"] += 1.0

    # ------------------------------------------------------------------ run --

    def run(self) -> SimulationResult:
        machine = self.machine
        engine = machine.engine
        scale = self.config.scale

        self.warm()
        wall_start = time.perf_counter()

        tracer = self._tracer
        if tracer is not None:
            tracer.begin_run(f"{self.config.name}/{self.workload.name}")
            if tracer.telemetry_interval_ns > 0.0:
                # Held by its scheduled sample only: the sampler holds
                # this runner.
                TelemetrySampler(
                    self, tracer, tracer.telemetry_interval_ns
                ).start()

        open_loop = not isinstance(self.arrivals, ClosedLoop)
        if open_loop:
            for core_id in range(self.config.num_cores):
                spawn(engine, self._arrival_process(core_id),
                      name=f"arrivals{core_id}")
        for core_id in range(self.config.num_cores):
            spawn(engine, self._core_loop(core_id), name=f"core{core_id}")
        engine.schedule(scale.warmup_ns, self._start_measurement)
        try:
            engine.run(until=scale.warmup_ns + scale.measurement_ns)
            self.throughput.stop_measurement(engine.now)
            if tracer is not None:
                tracer.end_run(engine.now)

            wall_seconds = time.perf_counter() - wall_start
            _WALL_TOTALS["measure_seconds"] += wall_seconds
            return self._build_result(open_loop, wall_seconds)
        finally:
            # After the result, which counts the executed events: the
            # unfinished processes hold this runner in cycles.
            engine.close()

    def _start_measurement(self) -> None:
        """Open the measurement window (scheduled at ``warmup_ns``)."""
        machine = self.machine
        self.service_latency.start_measurement()
        self.response_latency.start_measurement()
        self.throughput.start_measurement(machine.engine.now)
        # Snapshot the cumulative counters so _build_result can
        # report measurement-window deltas instead of since-t=0
        # totals polluted by warmup traffic.
        self._window_busy_ns = self._busy_ns
        self._window_accesses = self._accesses
        self._window_misses = self._misses
        if machine.flash is not None:
            machine.flash.gc.start_measurement()

    def _build_result(self, open_loop: bool,
                      wall_seconds: float = 0.0) -> SimulationResult:
        if self.service_latency.count == 0:
            raise ConfigurationError(
                "no jobs completed in the measurement window; "
                "increase measurement_ns"
            )
        # Measurement-window deltas: warmup accesses/misses/busy time
        # must not pollute the reported steady-state statistics.
        accesses = self._accesses - self._window_accesses
        misses = self._misses - self._window_misses
        busy_ns = self._busy_ns - self._window_busy_ns
        miss_ratio = misses / max(1, accesses)
        inter_miss = (busy_ns / misses) if misses else None
        total_core_time = (self.config.num_cores
                           * self.config.scale.measurement_ns)
        busy_fraction = min(1.0, busy_ns / max(total_core_time, 1.0))
        counters = dict(self.stats)
        # Kernel health/throughput telemetry.  These keys are new
        # relative to the recorded goldens and wall-clock-adjacent, so
        # golden comparisons skip the "engine." prefix.
        engine = self.machine.engine
        counters["engine.events_executed"] = float(engine.events_executed)
        counters["engine.compactions"] = float(engine.compactions)
        events_per_second = (engine.events_executed / wall_seconds
                             if wall_seconds > 0 else 0.0)
        if self.machine.dram_cache is not None:
            counters.update({
                f"dramcache.{k}": v for k, v in
                self.machine.dram_cache.frontside.counts().items()
            })
        if self.machine.flash is not None:
            counters.update({
                f"flash.{k}": v for k, v in
                self.machine.flash.stats.items()
            })
            if self.machine.flash.writes is not None:
                # Window-scoped write-path telemetry (DESIGN.md §4j):
                # deltas against the start_measurement baselines, so
                # warmup-era writebacks never pollute the WA factor.
                # Gated on the write path, so default-path counter
                # sets (and goldens) are unchanged.
                counters.update({
                    f"writes.{k}": v for k, v in
                    self.machine.flash.gc.write_window().items()
                })
        # Censoring accounting: everything still queued or in flight
        # when the run stopped was offered to the system but never
        # reached the completed-sample percentiles.
        queued_jobs = sum(len(q) for q in self._queues.values())
        inflight_jobs = len(self._live_jobs)
        unfinished_jobs = queued_jobs + inflight_jobs
        offered = unfinished_jobs + self.throughput.completions
        backlog_fraction = unfinished_jobs / offered if offered else 0.0
        has_responses = open_loop and self.response_latency.count > 0
        return SimulationResult(
            config_name=self.config.name,
            workload_name=self.workload.name,
            throughput_jobs_per_s=self.throughput.rate_per_second(),
            completed_jobs=self.throughput.completions,
            service_p50_ns=self.service_latency.p50(),
            service_p99_ns=self.service_latency.p99(),
            service_mean_ns=self.service_latency.mean(),
            response_p99_ns=(self.response_latency.p99()
                             if has_responses else None),
            response_mean_ns=(self.response_latency.mean()
                              if has_responses else None),
            miss_ratio=miss_ratio,
            mean_inter_miss_ns=inter_miss,
            core_busy_fraction=busy_fraction,
            counters=counters,
            events_per_second=events_per_second,
            warm_wall_seconds=self._warm_wall_seconds,
            wall_seconds=wall_seconds + self._warm_wall_seconds,
            warm_source=self._warm_source,
            unfinished_jobs=unfinished_jobs,
            inflight_jobs=inflight_jobs,
            queued_jobs=queued_jobs,
            backlog_fraction=backlog_fraction,
            response_p99_lower_bound_ns=(
                self._response_p99_lower_bound()
                if has_responses else None
            ),
        )

    def _response_p99_lower_bound(self) -> float:
        """Censoring-corrected lower bound on the open-loop p99.

        The window's completed-sample p99 silently drops requests
        still queued or in flight when the window closed.  Each such
        request has already waited ``now - arrived_at``, a lower bound
        on its eventual response latency; merging those ages back into
        the sample set gives a valid lower bound on the true p99
        (standard right-censoring treatment).  Falls back to the
        observed p99 when nothing was censored.
        """
        now = self.machine.engine.now
        ages = [now - job.arrived_at for job in self._live_jobs.values()
                if job.arrived_at is not None]
        for queue in self._queues.values():
            ages.extend(now - job.arrived_at for job in queue
                        if job.arrived_at is not None)
        if not ages:
            return self.response_latency.p99()
        merged = sorted(self.response_latency.samples() + ages)
        return percentile(merged, 0.99)

    # ------------------------------------------------------------ load gen --

    def _arrival_process(self, core_id: int):
        while True:
            yield self.arrivals.next_gap_ns()
            job = self.workload.make_job()
            job.arrived_at = self.machine.engine.now
            self._queues[core_id].append(job)
            _wake(self._idle, core_id)

    def _next_job(self, core_id: int) -> Optional[Job]:
        queue = self._queues[core_id]
        if queue:
            job = queue.popleft()
            self._live_jobs[job.job_id] = job
            return job
        if isinstance(self.arrivals, ClosedLoop):
            job = self.workload.make_job()
            job.arrived_at = self.machine.engine.now
            self._live_jobs[job.job_id] = job
            return job
        return None

    def _finish_job(self, job: Job) -> None:
        now = self.machine.engine.now
        self._live_jobs.pop(job.job_id, None)
        job.finished_at = now
        self.service_latency.record(now - job.started_at)
        self.response_latency.record(now - job.arrived_at)
        self.throughput.record_completion()
        self.stats["jobs_completed"] += 1.0
        if self._tracer is not None:
            self._tracer.finish_request(job, now)

    # ------------------------------------------------------- replay helper --

    def _replay_until_hit(self, page: int, is_write: bool):
        """Replay an access after its refill signal fired, tolerating
        install/eviction races.

        A synchronous waiter resumes one event after the install; under
        set pressure the page can already be evicted again, so the
        replay *misses*.  The old code silently charged the miss-detect
        latency as if it hit and leaked the fresh completion signal.
        Instead, wait for each raced refill and replay until the access
        hits, counting the races; more than ``REPLAY_RACE_LIMIT``
        consecutive losses is a pathological livelock and aborts the
        simulation.  Returns the latency to charge for the final hit.
        """
        cache = self.machine.dram_cache
        races = 0
        while True:
            replay = cache.access(page, is_write)
            if replay.hit:
                return replay.latency_ns
            races += 1
            self.stats["replay_miss_races"] += 1.0
            if races > REPLAY_RACE_LIMIT:
                raise SimulationError(
                    f"replay of page {page} lost the install/evict race "
                    f"{races} times; the cache set is livelocked"
                )
            yield replay.completion

    # -------------------------------------------------------------- core loop --

    def _core_loop(self, core_id: int):
        """The core's process generator: the mode's loop itself, so a
        core wake-up resumes it without a ``yield from`` level."""
        mode = self.config.mode
        if mode is PagingMode.DRAM_ONLY:
            return self._run_to_completion_loop(core_id, with_cache=False)
        if mode is PagingMode.FLASH_SYNC:
            return self._run_to_completion_loop(core_id, with_cache=True)
        return self._multiplexed_loop(core_id)

    # -- DRAM-only and Flash-Sync: one job at a time ---------------------------

    def _run_to_completion_loop(self, core_id: int, with_cache: bool):
        engine = self.machine.engine
        flat = self.machine.flat_dram_latency_ns
        cache = self.machine.dram_cache
        # Per-step locals for the hot inner loop; the TLB-hit draw is
        # inlined so _walk_miss_ns only runs on actual TLB misses, and
        # the frontside controller is called without DramCache.access's
        # forwarding frame.
        rng_random = self._rng_random
        tlb_p = self._tlb_miss_probability
        walk_miss = self._walk_miss_ns
        cache_access = cache.frontside.access if cache is not None else None
        tracer = self._tracer
        track = f"core{core_id}"

        while True:
            job = self._next_job(core_id)
            if job is None:
                signal = Signal(engine, f"idle{core_id}")
                self._idle[core_id] = signal
                yield signal
                continue
            job.started_at = engine.now
            # Sampled jobs carry a trace record (None otherwise); the
            # record only receives charges and track events, so traced
            # and untraced jobs make identical yields and RNG draws.
            record = None
            if tracer is not None:
                record = tracer.start_request(job, engine.now)
                if record is not None:
                    tracer.push(track, f"{job.workload_name}#{job.job_id}",
                                engine.now)
            accumulated = 0.0
            for compute_ns, page, is_write in job.steps:
                walk_ns = 0.0 if rng_random() >= tlb_p else walk_miss(page)
                accumulated += compute_ns + walk_ns
                self._accesses += 1
                if not with_cache:
                    hit_ns = flat
                else:
                    result = cache_access(page, is_write)
                    if result.hit:
                        hit_ns = result.latency_ns
                    else:
                        # Flash-Sync: the core waits for the refill.
                        self._misses += 1
                        job.misses += 1
                        yield accumulated
                        self._busy_ns += accumulated
                        accumulated = 0.0
                        wait_start = engine.now
                        if record is not None:
                            tracer.instant(track, "miss", wait_start,
                                           {"page": page})
                        yield result.completion
                        hit_ns = yield from self._replay_until_hit(
                            page, is_write
                        )
                        if record is not None:
                            self._charge_sync_wait(record, core_id,
                                                   wait_start, page)
                        self.stats["sync_miss_waits"] += 1.0
                accumulated += hit_ns
                if record is not None:
                    record.charge_step(compute_ns, walk_ns, hit_ns)
                if accumulated >= TIME_QUANTUM_NS:
                    yield accumulated
                    self._busy_ns += accumulated
                    accumulated = 0.0
            if accumulated > 0.0:
                yield accumulated
                self._busy_ns += accumulated
            if record is not None:
                tracer.pop(track, engine.now)
            self._finish_job(job)

    # -- AstriFlash and OS-Swap: switch-on-stall multiplexing --------------------

    def _multiplexed_loop(self, core_id: int):
        engine = self.machine.engine
        library = self.machine.libraries[core_id]
        mode = self.config.mode
        tracer = self._tracer

        while True:
            self._admit(core_id)
            self._drain_completions(core_id, library)
            thread = library.pick_next(engine.now,
                                       self._avg_stall_response_ns())
            if thread is None:
                signal = Signal(engine, f"idle{core_id}")
                self._idle[core_id] = signal
                yield signal
                continue

            dispatched_from = thread.state
            if thread.state is ThreadState.PENDING:
                # Aged (or forced) head whose data has not arrived: the
                # scheduler waits for the flash response (Sec. IV-D2).
                self.stats["blocking_dispatches"] += 1.0
                wait_start = engine.now
                yield thread.wait_signal
                self.stats["time_blocking_wait_ns"] += engine.now - wait_start
                if thread.state is ThreadState.PENDING:
                    thread.data_arrived(engine.now)

            # Thread switch cost (100 ns ULT / ~5 us OS context switch).
            switch_ns = library.switch_latency_ns
            if switch_ns > 0.0:
                yield switch_ns
                self.stats["time_switch_ns"] += switch_ns
            was_ready = thread.state is ThreadState.READY
            thread.dispatch()
            record = None
            if thread.job.started_at is None:
                thread.job.started_at = engine.now
                if tracer is not None:
                    record = tracer.start_request(thread.job, engine.now)
            elif tracer is not None:
                record = tracer.lookup(thread.job.job_id)
                if record is not None and dispatched_from in (
                        ThreadState.PENDING, ThreadState.READY):
                    # Close the parked interval: halt -> this dispatch.
                    signal = thread.wait_signal
                    payload = (signal.value
                               if signal is not None and signal.fired
                               else None)
                    record.charge_resume(
                        thread.pending_since, thread.data_ready_at,
                        engine.now, switch_ns, payload,
                    )
            if was_ready:
                # Forward-progress guarantee: the resuming instruction
                # must retire even if its page was evicted meanwhile.
                thread.forward_progress = True

            yield from self._run_thread(core_id, library, thread, mode,
                                        record)

    def _admit(self, core_id: int) -> None:
        library = self.machine.libraries[core_id]
        engine = self.machine.engine
        while library.can_admit():
            job = self._next_job(core_id)
            if job is None:
                break
            library.admit(job, engine.now)

    def _avg_stall_response_ns(self) -> float:
        if self.config.mode is PagingMode.OS_SWAP:
            return self.machine.pager.average_fault_latency_ns()
        return self.machine.flash.average_read_latency_ns()

    def _run_thread(self, core_id: int, library, thread: UserThread, mode,
                    record):
        """Run ``thread`` on the core until it finishes or parks.

        ``record`` is the job's trace record when it is sampled (None
        otherwise): it gets component charges and a core-track slice
        spanning this on-core episode (dispatch to park/finish), and
        changes no yield or RNG draw.
        """
        engine = self.machine.engine
        tracer = self._tracer
        accumulated = 0.0
        # Per-step locals: this loop runs once per memory access on the
        # multiplexed modes.  The hit paths are handled inline so the
        # miss generators (and their setup cost) only run on misses; a
        # hit is one call, to the frontside controller or (OS-Swap) the
        # resident set.
        astriflash = mode is PagingMode.ASTRIFLASH
        cache_access = (self.machine.dram_cache.frontside.access
                        if astriflash else None)
        resident_lookup = (None if astriflash
                           else self.machine.pager.resident.lookup)
        flat = self.machine.flat_dram_latency_ns
        rng_random = self._rng_random
        tlb_p = self._tlb_miss_probability
        walk_miss = self._walk_miss_ns
        job = thread.job
        steps = job.steps
        if record is not None:
            track = f"core{core_id}"
            tracer.push(track, f"{job.workload_name}#{job.job_id}",
                        engine.now)

        while True:
            step = thread.current_step
            if step is None:
                step = next(steps, None)
                thread.current_step = step
            if step is None:
                if accumulated > 0.0:
                    yield accumulated
                    self._busy_ns += accumulated
                if record is not None:
                    tracer.pop(track, engine.now)
                self._finish_job(library.on_finish(thread))
                return
            compute_ns, page, is_write = step

            walk_ns = 0.0 if rng_random() >= tlb_p else walk_miss(page)
            accumulated += compute_ns + walk_ns
            self._accesses += 1

            if astriflash:
                result = cache_access(page, is_write)
                if result.hit:
                    outcome = accumulated + result.latency_ns
                    if record is not None:
                        record.charge_step(compute_ns, walk_ns,
                                           result.latency_ns)
                else:
                    outcome = yield from self._astriflash_miss(
                        core_id, library, thread, step, walk_ns,
                        accumulated, result, record
                    )
            else:
                if resident_lookup(page, is_write):
                    outcome = accumulated + flat
                    if record is not None:
                        record.charge_step(compute_ns, walk_ns, flat)
                else:
                    outcome = yield from self._os_swap_fault(
                        core_id, library, thread, step, walk_ns,
                        accumulated, record
                    )
            if outcome is None:
                # Thread parked on the miss: back to the scheduler.
                if record is not None:
                    tracer.pop(track, engine.now)
                return
            accumulated = outcome
            thread.current_step = None
            if thread.forward_progress:
                # The forced instruction retired: clear the bit.
                thread.forward_progress = False
            if accumulated >= TIME_QUANTUM_NS:
                yield accumulated
                self._busy_ns += accumulated
                accumulated = 0.0

    # -- AstriFlash miss path ------------------------------------------------------

    def _astriflash_miss(self, core_id: int, library, thread: UserThread,
                         step, walk_ns: float, accumulated: float, result,
                         record=None):
        """Miss continuation for the AstriFlash access path; the hit
        case is handled inline in :meth:`_run_thread`.

        ``record`` is the request's trace record when the job is
        sampled (misses are rare relative to steps, so per-miss
        ``record is not None`` checks stay off the per-access path).
        The step's compute and walk are charged before the cold walk,
        and no hit latency: a synchronous replay charges its own.
        """
        engine = self.machine.engine
        compute_ns, page, is_write = step

        self._misses += 1
        thread.job.misses += 1
        # A cold access almost certainly misses the TLB too: the walk
        # precedes the data access.  With DRAM partitioning it is a
        # cheap flat-DRAM walk; under `noDP` the PT leaf page lives in
        # flash-backed cached space and the (serialized, unswitchable)
        # walk can itself stall on flash (Sec. IV-A, Table II).
        cold_walk_ns = (self.config.os.page_table_levels
                        * self.machine.flat_dram_latency_ns)
        pt_completion = None
        if self.machine.page_tables_in_flash_space:
            pt_page = self.machine.page_table_page(page)
            pt_result = self.machine.dram_cache.access(pt_page, False)
            if pt_result.hit:
                cold_walk_ns = (
                    (self.config.os.page_table_levels - 1)
                    * self.machine.flat_dram_latency_ns
                    + pt_result.latency_ns
                )
            else:
                self.stats["pt_walk_flash_misses"] += 1.0
                pt_completion = pt_result.completion
        # Simulate the compute up to the miss plus the walk, the miss
        # signal, and the ROB flush/redirect.
        flush_ns = self._flush_ns
        self.stats["time_flush_ns"] += flush_ns
        yield accumulated + cold_walk_ns + result.latency_ns + flush_ns
        self._busy_ns += accumulated + cold_walk_ns + result.latency_ns \
            + flush_ns
        if record is not None:
            record.charge_step(compute_ns, walk_ns, 0.0)
            record.tlb_walk += cold_walk_ns
            record.miss_signal += result.latency_ns + flush_ns
            self._tracer.instant(f"core{core_id}", "miss", engine.now,
                                 {"page": page})
        if pt_completion is not None:
            # The hardware walker blocks the core until the PTE page
            # arrives from flash; no thread switch can hide it.
            walk_start = engine.now
            yield pt_completion
            self.stats["time_pt_walk_wait_ns"] += engine.now - walk_start
            if record is not None:
                record.tlb_walk += engine.now - walk_start
                record.add_span("tlb_walk", walk_start, engine.now)
                self._tracer.complete(f"core{core_id}", "pt_walk_wait",
                                      walk_start, engine.now,
                                      {"page": page})

        if thread.forward_progress:
            # Sec. IV-C3: complete synchronously, do not deschedule.
            self.stats["forward_progress_syncs"] += 1.0
            wait_start = engine.now
            yield result.completion
            replay_ns = yield from self._replay_until_hit(page, is_write)
            self.stats["time_sync_wait_ns"] += engine.now - wait_start
            if record is not None:
                self._charge_sync_wait(record, core_id, wait_start, page)
                record.dram_hit += replay_ns
            return replay_ns

        if library.scheduler.pending_full:
            # Sec. IV-D1: pending queue full — the scheduler waits for
            # the flash response instead of switching.
            self.stats["pending_overflow_syncs"] += 1.0
            wait_start = engine.now
            yield result.completion
            replay_ns = yield from self._replay_until_hit(page, is_write)
            self.stats["time_sync_wait_ns"] += engine.now - wait_start
            if record is not None:
                self._charge_sync_wait(record, core_id, wait_start, page)
                record.dram_hit += replay_ns
            return replay_ns

        # Park the thread and return to the scheduler.
        library.on_miss(thread, page, engine.now)
        thread.wait_signal = result.completion
        observe(result.completion,
                self._make_ready_callback(core_id, library, thread))
        return None

    # -- OS-Swap fault path -----------------------------------------------------------

    def _os_swap_fault(self, core_id: int, library, thread: UserThread,
                       step, walk_ns: float, accumulated: float,
                       record=None):
        """Fault continuation for the OS-Swap access path; the
        resident-set hit is handled inline in :meth:`_run_thread`.
        ``record`` is charged as in :meth:`_astriflash_miss`."""
        pager = self.machine.pager
        engine = self.machine.engine
        flat = self.machine.flat_dram_latency_ns
        compute_ns, page, is_write = step

        self._misses += 1
        thread.job.misses += 1
        # The faulting thread runs the kernel entry on this core, then
        # the OS switches away (switch charged at next dispatch).
        yield accumulated + self.config.os.page_fault_kernel_ns
        self._busy_ns += accumulated + self.config.os.page_fault_kernel_ns
        if record is not None:
            record.charge_step(compute_ns, walk_ns, 0.0)
            record.miss_signal += self.config.os.page_fault_kernel_ns
            self._tracer.instant(f"core{core_id}", "fault", engine.now,
                                 {"page": page})

        done = Signal(engine, f"fault-done:{page}")

        def fault_and_signal():
            yield from pager.fault(page, is_write)
            done.fire()

        spawn(engine, fault_and_signal(), name=f"fault:{page}")

        if thread.forward_progress or library.scheduler.pending_full:
            self.stats["sync_fault_waits"] += 1.0
            wait_start = engine.now
            yield done
            self.stats["time_sync_wait_ns"] += engine.now - wait_start
            if record is not None:
                self._charge_sync_wait(record, core_id, wait_start, page)
                record.dram_hit += flat
            return flat

        library.on_miss(thread, page, engine.now)
        thread.wait_signal = done
        observe(done, self._make_ready_callback(core_id, library, thread))
        return None

    def _charge_sync_wait(self, record, core_id: int, wait_start: float,
                          page: int) -> None:
        """Attribute a synchronous refill wait ending now to
        ``sync_wait``; the caller charges the replayed hit (or flat
        re-access) to ``dram_hit``."""
        now = self.machine.engine.now
        record.sync_wait += now - wait_start
        record.add_span("sync_wait", wait_start, now)
        self._tracer.complete(f"core{core_id}", "sync_wait", wait_start,
                              now, {"page": page})

    def _drain_completions(self, core_id: int, library) -> None:
        """Read the queue pair and mark notified threads ready."""
        engine = self.machine.engine
        for entry in self._cqs[core_id].drain():
            thread = entry.context
            if thread.state is ThreadState.PENDING:
                library.on_data_ready(thread, engine.now)

    def _make_ready_callback(self, core_id: int, library,
                             thread: UserThread):
        """BC completion -> queue-pair post for the parked thread."""
        cq = self._cqs[core_id]
        engine = self.machine.engine

        def on_ready(_value):
            if thread.state is ThreadState.PENDING:
                cq.post(thread.miss_page, engine.now, context=thread)

        return on_ready

    # -- page-table walks -----------------------------------------------------------

    def _walk_miss_ns(self, data_page: int) -> float:
        """TLB-miss handling cost, once the per-step TLB draw has lost.

        The inner loops inline the (overwhelmingly common) TLB-hit draw
        and only pay this call frame on actual misses.  With DRAM
        partitioning (and for all non-AstriFlash modes) the walk is
        served from flat DRAM.  Under `noDP` the PT leaf page goes
        through the DRAM cache and the walk blocks synchronously on a
        flash fetch when it misses (Sec. IV-A).
        """
        self.stats["tlb_misses"] += 1.0
        if not self.machine.page_tables_in_flash_space:
            return self._flat_walk_ns
        # noDP: upper levels stay cached; the leaf PTE page goes through
        # the DRAM cache and can miss to flash.
        levels = self.config.os.page_table_levels
        pt_page = self.machine.page_table_page(data_page)
        result = self.machine.dram_cache.access(pt_page, False)
        upper_levels = (levels - 1) * self.machine.flat_dram_latency_ns
        if result.hit:
            return upper_levels + result.latency_ns
        self.stats["pt_walk_flash_misses"] += 1.0
        # The walker cannot thread-switch: charge the full expected
        # refill latency synchronously (the walk serializes on flash).
        return (upper_levels
                + self.machine.flash.average_read_latency_ns())
