"""Request-lifecycle tracer: spans, sampling, and the no-op fast path.

The tracer is the collection half of the observability subsystem
(DESIGN.md §4d).  Simulator components bind the module-level active
tracer once at construction time and guard every instrumentation site
with a single ``if tracer is not None`` branch, so a run with tracing
disabled pays one predictable branch per site and nothing else.

Two kinds of data are collected:

* **Track events** — Chrome-trace-shaped slices (``B``/``E``), complete
  spans (``X``), instants (``i``) and counter samples (``C``) keyed by
  ``(run, track)``.  Tracks are strings (``core0``, ``flash-plane3``,
  ``bc``, ``counters``); the exporter in
  :mod:`repro.obs.chrometrace` maps them to Chrome tids.
* **Request records** — per-job component accounting (compute, DRAM
  hit, TLB walk, miss signal, thread switch, MSR wait, flash read,
  install wait, ready wait, sync wait) whose sum reconstructs the
  measured service latency exactly; the attribution report in
  :mod:`repro.obs.attribution` aggregates them by latency percentile.

Determinism contract: the tracer only *reads* simulator state.  It
never draws from any RNG (request sampling is ``job_id % sample_every``)
and never schedules result-affecting events, so enabling it leaves
simulation statistics bit-identical (pinned by the golden determinism
test).  Memory is bounded by the sampling rate plus hard caps on
retained events and request records; overflow increments drop counters
instead of growing without bound.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.units import US

#: Per-request latency components, in report order.  The sum of every
#: component except ``queue_wait`` reconstructs the measured service
#: latency (dispatch -> completion) of the request.
COMPONENTS = (
    "compute",       # compute segments retired on the core
    "dram_hit",      # DRAM-cache hit / flat-DRAM access latency
    "tlb_walk",      # TLB-miss page walks (incl. cold walks on misses)
    "miss_signal",   # miss-detect latency + ROB flush (+ fault entry)
    "switch",        # user-level thread / OS context switches
    "msr_wait",      # miss parked: FC miss -> flash read issued
    "flash_read",    # miss parked: flash read in flight
    "fault_stall",   # miss parked: failed attempts (retry/timeout/reissue)
    "install_wait",  # miss parked: page arrived -> install + notify
    "flash_wait",    # parked wait that could not be decomposed (OS swap)
    "ready_wait",    # data arrived -> rescheduled on the core
    "sync_wait",     # core blocked synchronously on a refill
)

# ------------------------------------------------------------- fast path --

#: The process-wide active tracer.  Components read :func:`active` once
#: at construction; hot paths then branch on their bound reference,
#: never on this module.
_ACTIVE: Optional["Tracer"] = None


def enable(tracer: "Tracer") -> None:
    """Install ``tracer`` as the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = tracer


def disable() -> None:
    """Remove the active tracer (instrumentation reverts to no-op)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional["Tracer"]:
    """The active tracer, or None when tracing is disabled."""
    return _ACTIVE


# ------------------------------------------------------------ request side --


class RequestRecord:
    """Component accounting for one sampled request (job)."""

    __slots__ = ("job_id", "workload", "run", "arrived_at", "started_at",
                 "finished_at", "misses", "spans",
                 "compute", "dram_hit", "tlb_walk", "miss_signal", "switch",
                 "msr_wait", "flash_read", "fault_stall", "install_wait",
                 "flash_wait", "ready_wait", "sync_wait")

    #: Timestamped sub-spans kept per record (components stay exact
    #: past the cap; only the span *list* is bounded).
    MAX_SPANS = 256

    def __init__(self, job_id: int, workload: str, run: str,
                 arrived_at: float, started_at: float) -> None:
        self.job_id = job_id
        self.workload = workload
        self.run = run
        self.arrived_at = arrived_at
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        self.misses = 0
        #: (component, start_ns, end_ns) spans with real timestamps;
        #: quantum-batched on-core components (compute/hits/walks) are
        #: amount-only and do not appear here.
        self.spans: List[Tuple[str, float, float]] = []
        self.compute = 0.0
        self.dram_hit = 0.0
        self.tlb_walk = 0.0
        self.miss_signal = 0.0
        self.switch = 0.0
        self.msr_wait = 0.0
        self.flash_read = 0.0
        self.fault_stall = 0.0
        self.install_wait = 0.0
        self.flash_wait = 0.0
        self.ready_wait = 0.0
        self.sync_wait = 0.0

    # -- charging helpers ----------------------------------------------------

    def add_span(self, component: str, start: float, end: float) -> None:
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append((component, start, end))

    def charge_step(self, compute_ns: float, walk_ns: float,
                    hit_ns: float) -> None:
        """Charge one retired step: its compute segment, TLB walk and
        DRAM hit (or flat-DRAM access) latency."""
        self.compute += compute_ns
        self.tlb_walk += walk_ns
        self.dram_hit += hit_ns

    def charge_resume(self, pending_since: float,
                      data_ready_at: Optional[float], run_start: float,
                      switch_ns: float, payload: Any) -> None:
        """Attribute the interval from a miss halt to the next dispatch.

        ``[pending_since, run_start]`` splits into the parked wait (up
        to ``data_ready_at``), the ready-queue wait, and the thread
        switch.  When ``payload`` is the install-signal payload (a
        ``MissRequest`` carrying flash issue/done stamps) the parked
        wait is further decomposed into MSR wait, flash read and
        install; stamps are clipped into the parked interval so the
        decomposition sums exactly.
        """
        park_end = run_start - switch_ns
        ready_at = data_ready_at
        if ready_at is None or ready_at > park_end:
            ready_at = park_end
        if ready_at < pending_since:
            ready_at = pending_since
        self.switch += switch_ns
        self.ready_wait += park_end - ready_at
        if park_end > ready_at:
            self.add_span("ready_wait", ready_at, park_end)
        issued = getattr(payload, "flash_issued_at", None)
        done = getattr(payload, "flash_done_at", None)
        if issued is None or done is None:
            self.flash_wait += ready_at - pending_since
            if ready_at > pending_since:
                self.add_span("flash_wait", pending_since, ready_at)
            return
        issued = min(max(issued, pending_since), ready_at)
        done = min(max(done, issued), ready_at)
        self.msr_wait += issued - pending_since
        # Under fault injection the in-flight interval includes time
        # burned on failed attempts (timeouts, uncorrectable replies,
        # reissues); the BC stamps that as fault_stall_ns.  Those
        # failed attempts precede the read that delivered data, so the
        # stall occupies the front of the interval.
        fault_ns = getattr(payload, "fault_stall_ns", 0.0)
        span = done - issued
        if fault_ns > span:
            fault_ns = span
        stall_end = issued + fault_ns
        self.fault_stall += fault_ns
        self.flash_read += span - fault_ns
        self.install_wait += ready_at - done
        if issued > pending_since:
            self.add_span("msr_wait", pending_since, issued)
        if stall_end > issued:
            self.add_span("fault_stall", issued, stall_end)
        if done > stall_end:
            self.add_span("flash_read", stall_end, done)
        if ready_at > done:
            self.add_span("install_wait", done, ready_at)

    # -- derived quantities --------------------------------------------------

    @property
    def service_latency_ns(self) -> float:
        if self.finished_at is None:
            raise ValueError(f"request {self.job_id} not finished")
        return self.finished_at - self.started_at

    def components(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in COMPONENTS}

    def span_sum_ns(self) -> float:
        total = 0.0
        for name in COMPONENTS:
            total += getattr(self, name)
        return total

    def __repr__(self) -> str:
        return (f"<RequestRecord {self.workload}#{self.job_id} "
                f"misses={self.misses}>")


# ------------------------------------------------------------------ tracer --


class Tracer:
    """Collects track events and request records for one traced session.

    ``sample_every`` traces one request in N (deterministically, by
    ``job_id`` — never via the simulation RNG).  ``max_events`` and
    ``max_requests`` bound memory; overflow is counted, not stored.
    ``telemetry_interval_ns`` is the cadence of the time-series sampler
    (:class:`repro.obs.telemetry.TelemetrySampler`); 0 disables it.
    """

    def __init__(self, sample_every: int = 1,
                 max_events: int = 1_000_000,
                 max_requests: int = 200_000,
                 telemetry_interval_ns: float = 5.0 * US) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.max_events = max_events
        self.max_requests = max_requests
        self.telemetry_interval_ns = telemetry_interval_ns
        #: (ts_ns, run_index, track, phase, name, args, dur_ns)
        self.events: List[Tuple] = []
        self.dropped_events = 0
        self.runs: List[str] = []
        self.completed: List[RequestRecord] = []
        self.dropped_requests = 0
        self.requests_seen = 0
        #: Time-series rows appended by the telemetry sampler.
        self.telemetry_rows: List[Dict[str, float]] = []
        self._run_index = -1
        self._active_requests: Dict[int, RequestRecord] = {}
        self._open: Dict[Tuple[int, str], List[bool]] = {}

    # -- run scoping ----------------------------------------------------------

    @property
    def current_run(self) -> str:
        if self._run_index < 0:
            return ""
        return self.runs[self._run_index]

    def begin_run(self, label: str) -> None:
        """Open a new run scope (one simulation = one trace process)."""
        self.runs.append(label)
        self._run_index = len(self.runs) - 1
        # Job ids restart per run; records still in flight belong to
        # the previous run and will never complete.
        self._active_requests = {}

    def _ensure_run(self) -> int:
        if self._run_index < 0:
            self.begin_run("untitled")
        return self._run_index

    def end_run(self, now: float) -> None:
        """Close the run: jobs still in flight when the simulation
        horizon was reached leave open B slices — emit their matching
        E events at the final timestamp so the trace stays balanced."""
        run = self._run_index
        if run < 0:
            return
        for (event_run, track), stack in self._open.items():
            if event_run != run:
                continue
            while stack:
                if stack.pop():
                    self.events.append((now, run, track, "E", None,
                                        {"truncated": True}, None))
                else:
                    self.dropped_events += 1

    # -- request lifecycle ----------------------------------------------------

    def start_request(self, job: Any, now: float) -> Optional[RequestRecord]:
        """Sample ``job`` at dispatch time; returns its record or None."""
        self.requests_seen += 1
        if job.job_id % self.sample_every != 0:
            return None
        run = self._ensure_run()
        record = RequestRecord(
            job.job_id, job.workload_name, self.runs[run],
            arrived_at=(job.arrived_at
                        if job.arrived_at is not None else now),
            started_at=now,
        )
        self._active_requests[job.job_id] = record
        return record

    def lookup(self, job_id: int) -> Optional[RequestRecord]:
        """The in-flight record for ``job_id`` (None if unsampled)."""
        return self._active_requests.get(job_id)

    def finish_request(self, job: Any, now: float) -> None:
        """Close the record (if sampled) and file it for attribution."""
        record = self._active_requests.pop(job.job_id, None)
        if record is None:
            return
        record.finished_at = now
        record.misses = job.misses
        if len(self.completed) < self.max_requests:
            self.completed.append(record)
        else:
            self.dropped_requests += 1
        # Async request span for the Chrome trace ("b"/"e" by id).
        if len(self.events) < self.max_events - 1:
            name = f"{record.workload}#{record.job_id}"
            run = self._run_index
            self.events.append((record.started_at, run, "requests", "b",
                                name, None, None))
            self.events.append((now, run, "requests", "e", name,
                                {k: round(v, 1) for k, v
                                 in record.components().items() if v},
                                None))
        else:
            self.dropped_events += 1

    # -- track events ---------------------------------------------------------

    def push(self, track: str, name: str, ts: float,
             args: Optional[dict] = None) -> None:
        """Open a ``B`` slice on ``track``; pair with :meth:`pop`.

        Budget accounting keeps B/E pairs matched even at the event
        cap: a dropped ``B`` drops its matching ``E`` too.
        """
        run = self._ensure_run()
        ok = len(self.events) < self.max_events
        self._open.setdefault((run, track), []).append(ok)
        if ok:
            self.events.append((ts, run, track, "B", name, args, None))
        else:
            self.dropped_events += 1

    def pop(self, track: str, ts: float,
            args: Optional[dict] = None) -> None:
        """Close the innermost open slice on ``track``."""
        run = self._ensure_run()
        stack = self._open.get((run, track))
        if not stack:
            return  # unbalanced pop; drop rather than corrupt the trace
        if stack.pop():
            self.events.append((ts, run, track, "E", None, args, None))
        else:
            self.dropped_events += 1

    def complete(self, track: str, name: str, start: float, end: float,
                 args: Optional[dict] = None) -> None:
        """A complete ``X`` span (may overlap others on its track)."""
        run = self._ensure_run()
        if len(self.events) < self.max_events:
            self.events.append((start, run, track, "X", name, args,
                                end - start))
        else:
            self.dropped_events += 1

    def instant(self, track: str, name: str, ts: float,
                args: Optional[dict] = None) -> None:
        run = self._ensure_run()
        if len(self.events) < self.max_events:
            self.events.append((ts, run, track, "i", name, args, None))
        else:
            self.dropped_events += 1

    def counter(self, name: str, ts: float, value: float) -> None:
        """One counter sample (rendered as a Chrome ``C`` track)."""
        run = self._ensure_run()
        if len(self.events) < self.max_events:
            self.events.append((ts, run, "counters", "C", name,
                                {"value": value}, None))
        else:
            self.dropped_events += 1

    # -- summaries ------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        return {
            "runs": len(self.runs),
            "events": len(self.events),
            "dropped_events": self.dropped_events,
            "requests_seen": self.requests_seen,
            "requests_traced": len(self.completed),
            "dropped_requests": self.dropped_requests,
            "telemetry_samples": len(self.telemetry_rows),
        }

    def __repr__(self) -> str:
        return (f"<Tracer runs={len(self.runs)} events={len(self.events)} "
                f"requests={len(self.completed)}>")
