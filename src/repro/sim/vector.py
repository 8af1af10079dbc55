"""Vectorized batch-execution backend (DESIGN.md §4h).

The scalar engine advances one heap pop at a time; most of those pops
are compute-quantum resumes whose timing is fully determined the moment
the job is dispatched.  On DRAM-only runs this module retires that
predictable work without the event heap:

* compute jitter and TLB draws are pulled as numpy blocks from the
  *same* RNG streams the scalar path consumes one call at a time
  (`BatchedRandom`), so the drawn values stay aligned;
* every DRAM-only shape — single-core closed loop (``fused``),
  open-loop, multi-core — runs one *merged event horizon*
  (`run_merged`): a heap-free (time, seq) mirror of the scalar
  schedule interleaving per-stream arrival events (gaps pre-drawn in
  blocks via the arrival processes' ``gap_block`` protocol), per-core
  burst resumes, and the measurement boundary.  Burst durations re-run
  the scalar accumulation adds bit-for-bit (float addition is
  non-associative, so boundaries cannot come from a block cumsum);
  cores advance in lockstep bounded by the earliest cross-core event;
  steps are dealt from global per-stream cursors so shared-RNG draw
  order matches the scalar interleave exactly; the engine clock and
  event tally are synchronized in batches via `Engine.advance_batch`.

Everything else — tracing, finite arrival traces, Flash-Sync (its
refills run the full FC→BC→flash machinery on the event engine),
multiplexed-burst modes — **falls back to the scalar path**, which
remains the golden reference.  The contract is
bit-identity: same `state_fingerprint`, same deterministic stats, same
`engine.events_executed`, enforced by tests/test_vector_backend.py and
the CI perf-smoke job.

Selection: ``REPRO_BACKEND=vector`` (env) or ``backend="vector"``
(Runner/CLI).  Default is ``scalar`` at the Runner level; the sweep
drivers (loadgen, chaos, figure harness) default to vector via
:func:`preferred_backend` — safe because :func:`classify` falls back
per run shape.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Recognized backend names.
BACKENDS = ("scalar", "vector")

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_BACKEND"


def resolve_backend(explicit: Optional[str] = None) -> str:
    """The backend to use: explicit argument, else $REPRO_BACKEND,
    else ``scalar``."""
    name = explicit if explicit else os.environ.get(ENV_VAR, "")
    name = (name or "scalar").strip().lower()
    if name not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise ConfigurationError(
            f"unknown backend {name!r}; known: {known}"
        )
    return name


def preferred_backend(explicit: Optional[str] = None) -> str:
    """The backend for harness-level sweep fan-out: explicit argument,
    else ``$REPRO_BACKEND``, else ``vector``.

    Unlike :func:`resolve_backend` (whose unset default is scalar —
    the Runner-level golden reference), the sweep drivers default to
    the vector backend: :func:`classify` vets every run shape and
    falls back per run, so vector-by-default only changes wall time,
    never results.  Setting ``REPRO_BACKEND=scalar`` still forces the
    scalar engine everywhere (the CI A/B lever).
    """
    if explicit:
        return resolve_backend(explicit)
    if os.environ.get(ENV_VAR, "").strip():
        return resolve_backend(None)
    return "vector"


# Run-shape telemetry for the vector backend, process-wide (mirrors
# runner._WALL_TOTALS).  Deliberately *not* part of SimulationResult
# counters: results must stay byte-identical across backends.
_STATS: Dict[str, int] = {}


def _reset_stats() -> None:
    _STATS.update({
        "fused_runs": 0,        # single-core closed-loop merged runs
        "job_epoch_runs": 0,    # always 0; bench/sweep.py reads the key
        "open_loop_runs": 0,    # single-core open-loop merged runs
        "multi_core_runs": 0,   # multi-core merged runs (open or closed)
        "scalar_fallbacks": 0,  # vector requested but shape unsupported
        "epochs": 0,            # bursts retired without a heap pop
        "batched_jobs": 0,      # jobs dispatched on the merged loop
        "batched_steps": 0,     # steps retired on the merged loop
        "merged_arrivals": 0,   # arrival events on the merged horizon
    })


#: Per-reason fallback counts (reason string -> occurrences since the
#: last reset) — the surfaced form of scalar_fallbacks: ``repro
#: profile``/``bench-kernel`` JSON embed it and the CLI warns on
#: stderr when a requested vector run silently fell back.
_FALLBACK_REASONS: Dict[str, int] = {}

_reset_stats()
_LAST_FALLBACK_REASON = ""


def stats() -> Dict[str, int]:
    """Snapshot of the process-wide vector-backend telemetry."""
    return dict(_STATS)


def reset_stats() -> None:
    """Zero the telemetry (test isolation)."""
    _reset_stats()
    _FALLBACK_REASONS.clear()


def last_fallback_reason() -> str:
    return _LAST_FALLBACK_REASON


def fallback_reasons() -> Dict[str, int]:
    """Snapshot of per-reason scalar-fallback counts since reset."""
    return dict(_FALLBACK_REASONS)


# --------------------------------------------------------------- RNG bridge --


class BatchedRandom:
    """Block draws from a ``random.Random`` via numpy, stream-exactly.

    CPython's ``random.Random`` and ``numpy.random.RandomState`` share
    the Mersenne-Twister core *and* the 53-bit double construction
    (``genrand_res53``), so transplanting the 624-word key/position
    state lets numpy produce the next ``n`` doubles bit-identically to
    ``n`` calls of ``rng.random()``.

    The 625-word state transplant costs far more than a small draw, so
    draws are served from an internal buffer and the Python RNG is
    *not* touched per call: refills chain fresh numpy draws onto the
    unserved tail, and the owner calls :meth:`sync` once (end of run)
    to fast-forward the Python stream to exactly the consumed position
    (one fresh transplant plus a replay of the consumed count).
    Between construction and :meth:`sync`, drawing from the underlying
    ``random.Random`` directly would fork the stream — the vector run
    shapes guarantee no such consumer exists.
    """

    __slots__ = ("_rng", "_np", "_block", "_buffer", "_cursor",
                 "_drawn")

    def __init__(self, rng: random.Random, block: int = 8192) -> None:
        self._rng = rng
        self._np = np.random.RandomState()
        self._block = block
        self._buffer: Optional[np.ndarray] = None
        self._cursor = 0
        # Doubles drawn from the numpy stream since bridging; consumed
        # position = _drawn - unserved tail.
        self._drawn = 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` uniform doubles of the underlying stream."""
        buffer = self._buffer
        cursor = self._cursor
        if buffer is not None and cursor + n <= buffer.shape[0]:
            self._cursor = cursor + n
            return buffer[cursor:self._cursor]
        return self._refill_take(n)

    def _bridge_in(self) -> None:
        _version, internal, _gauss = self._rng.getstate()
        self._np.set_state(
            ("MT19937",
             np.asarray(internal[:-1], dtype=np.uint32),
             internal[-1])
        )

    def _refill_take(self, n: int) -> np.ndarray:
        npr = self._np
        if self._buffer is None:
            version = self._rng.getstate()[0]
            if version != 3:  # pragma: no cover - all supported CPythons
                return np.array([self._rng.random() for _ in range(n)])
            self._bridge_in()
            self._drawn = 0
            head = self._buffer  # None
        else:
            head = self._buffer[self._cursor:]
            if head.shape[0] == 0:
                head = None
        need = n if head is None else n - head.shape[0]
        size = self._block if need <= self._block else need
        fresh = npr.random_sample(size)
        self._drawn += size
        self._buffer = (fresh if head is None
                        else np.concatenate((head, fresh)))
        self._cursor = n
        return self._buffer[:n]

    def unserve(self, n: int) -> None:
        """Return the last ``n`` served doubles to the buffer.

        Owners that re-buffer a :meth:`take` (e.g. the arrival
        processes' ``_UniformBlock``) call this with their unconsumed
        tail before :meth:`sync` so the Python RNG lands on the
        *consumed* position rather than the served one.
        """
        if n:
            if n > self._cursor:
                raise ValueError(
                    f"cannot unserve {n} doubles; only {self._cursor} "
                    f"served from the current buffer"
                )
            self._cursor -= n

    def sync(self) -> None:
        """Fast-forward the Python RNG to the consumed position."""
        if self._buffer is None:
            return
        consumed = self._drawn - (self._buffer.shape[0] - self._cursor)
        npr = self._np
        version, _internal, gauss_next = self._rng.getstate()
        self._bridge_in()
        if consumed:
            npr.random_sample(consumed)
        _kind, keys, pos, _has_gauss, _cached = npr.get_state(legacy=True)
        self._rng.setstate(
            (version, tuple(keys.tolist()) + (int(pos),), gauss_next)
        )
        self._buffer = None
        self._cursor = 0
        self._drawn = 0


def uniform_block(rng: random.Random, n: int) -> np.ndarray:
    """One-shot block draw with immediate resync (tests, one-offs)."""
    batched = BatchedRandom(rng, block=n)
    block = batched.take(n)
    batched.sync()
    return block


# ----------------------------------------------------------- run-shape gate --


def classify_shape(mode, num_cores: int, open_loop: bool = False,
                   tracing: bool = False, faulted: bool = False,
                   finite_trace: bool = False,
                   writes_enabled: bool = False
                   ) -> Tuple[Optional[str], str]:
    """Pure run-shape gate: which vector loop (if any) fits the shape.

    Returns ``(kind, reason)`` where kind names the DRAM-only shape
    :func:`run_merged` executes — ``"fused"`` (single-core closed
    loop), ``"open-loop"`` or ``"multi-core"`` — or is ``None`` with
    the fallback reason.  The gates mirror DESIGN.md §4h: per-event
    observation (tracing), a finite arrival trace that ends the stream
    mid-window, and every mode with a DRAM cache or pager (Flash-Sync
    refills, multiplexed bursts) keep the scalar path.

    Pure on purpose: the sweep drivers (loadgen/chaos) call it with
    config-derived facts to report deterministic per-cell backend
    expectations without running anything; :func:`classify` derives
    the same facts from a live runner.
    """
    from repro.config.system import PagingMode

    if tracing:
        return None, "tracing active (per-event observation)"
    if open_loop and finite_trace:
        return None, ("open-loop trace arrivals exhaust "
                      "(finite source ends the stream)")
    if mode is PagingMode.DRAM_ONLY:
        if num_cores != 1:
            return "multi-core", ""
        if open_loop:
            return "open-loop", ""
        return "fused", ""
    if mode is PagingMode.FLASH_SYNC:
        if faulted:
            return None, "fault plan active (per-read outcome draws)"
        if writes_enabled:
            # The writes bench and its CI job read this reason.
            return None, "writes"
        if num_cores != 1:
            return None, ("multi-core flash-sync (cores share the "
                          "DRAM cache and flash path)")
        return None, "flash-sync (refills run on the event engine)"
    return None, f"mode {mode.name} multiplexes threads per burst"


def classify(runner) -> Tuple[Optional[str], str]:
    """:func:`classify_shape` on a live runner's actual shape."""
    from repro.workloads.arrival import ClosedLoop, TraceArrivals

    arrivals = runner.arrivals
    open_loop = not isinstance(arrivals, ClosedLoop)
    finite_trace = (isinstance(arrivals, TraceArrivals)
                    and not arrivals.cycle)
    faulted = (runner.machine.flash is not None
               and runner.machine.flash.faults is not None)
    writes_enabled = (runner.machine.flash is not None
                      and runner.machine.flash.writes is not None)
    return classify_shape(
        runner.config.mode, runner.config.num_cores,
        open_loop=open_loop, tracing=runner._tracer is not None,
        faulted=faulted, finite_trace=finite_trace,
        writes_enabled=writes_enabled,
    )


def record_fallback(reason: str) -> None:
    global _LAST_FALLBACK_REASON
    _STATS["scalar_fallbacks"] += 1
    _FALLBACK_REASONS[reason] = _FALLBACK_REASONS.get(reason, 0) + 1
    _LAST_FALLBACK_REASON = reason


def execution_summary(backend: str, shape_counts) -> Dict[str, object]:
    """Deterministic per-sweep backend accounting for bench schemas.

    ``shape_counts`` is an iterable of ``(mode, num_cores, open_loop,
    faulted, writes_enabled, count)`` tuples describing the runs a
    sweep issued.  Each shape is classified via :func:`classify_shape`
    (config-derived facts only — never run results, which may come
    from the cache), so the summary is byte-identical across
    invocations of the same sweep.  The ``fallback_reasons`` histogram is the sweep-level
    surface of the process-wide :func:`fallback_reasons` counters.
    """
    summary: Dict[str, object] = {
        "backend": backend,
        "vector_cells": 0,
        "scalar_cells": 0,
        "vector_kinds": {},
        "fallback_reasons": {},
    }
    kinds: Dict[str, int] = summary["vector_kinds"]
    reasons: Dict[str, int] = summary["fallback_reasons"]
    for mode, num_cores, open_loop, faulted, writes_enabled, count \
            in shape_counts:
        if backend != "vector":
            summary["scalar_cells"] += count
            continue
        kind, reason = classify_shape(mode, num_cores,
                                      open_loop=open_loop,
                                      faulted=faulted,
                                      writes_enabled=writes_enabled)
        if kind is None:
            summary["scalar_cells"] += count
            reasons[reason] = reasons.get(reason, 0) + count
        else:
            summary["vector_cells"] += count
            kinds[kind] = kinds.get(kind, 0) + count
    return summary


# ---------------------------------------------------- merged event horizon --


#: Gaps pre-drawn per arrival-stream refill on the merged loop.
ARRIVAL_GAP_BLOCK = 64

#: Steps dealt (and TLB draws bridged) per refill on the merged loop.
MERGED_STEP_CHUNK = 4096


def run_merged(runner) -> None:
    """Measurement phase for every DRAM-only shape :func:`classify`
    vets: a heap-free (time, seq) mirror of the scalar schedule.

    The scalar run's heap holds at most one pending resume per core,
    one pending arrival per stream, and the measurement boundary; the
    merged loop keeps exactly those slots and always processes the
    global (time, seq) minimum, so cores advance in lockstep bounded
    by the earliest cross-core event and every handler runs at the
    same simulated instant, in the same order, as its scalar twin.
    Sequence numbers mirror the scalar spawn order (arrival streams,
    then cores, then the measurement callback); a local counter
    continues where the spawn seeds left off.

    Draw-order exactness: shared RNG streams are consumed at the same
    event-processing points as the scalar run.  Arrival gaps come from
    the process's ``gap_block`` buffer (per-call ``next_gap_ns`` for
    custom processes); per-step TLB draws come from one bridged cursor
    consumed in step-pull order; workloads exposing
    ``plan_step_block`` (arrayswap) have their compute jitter dealt
    from a global per-step cursor in the same pull order, with zipf
    page draws skipped entirely — pages are unobserved in DRAM-only
    mode and RNG stream *positions* are outside the bit-identity
    contract.  Other workloads pull their real step generators lazily,
    which is the scalar draw order by construction.

    The runner's own ``_next_job``/``_finish_job`` run unchanged, so
    queue/live-set bookkeeping — and with it the open-loop censoring
    contract (same ``unfinished_jobs``, same
    ``response_p99_lower_bound_ns``) — is the scalar code, not a
    reimplementation.  A burst whose resume falls past the window end
    never executes: its steps were already generated (accesses/TLB
    counted, streams consumed) but its busy time is not charged and
    its job stays live, matching scalar truncation.
    """
    from repro.core.runner import TIME_QUANTUM_NS
    from repro.workloads.arrival import ClosedLoop

    machine = runner.machine
    engine = machine.engine
    scale = runner.config.scale
    warmup = scale.warmup_ns
    end = warmup + scale.measurement_ns
    flat = machine.flat_dram_latency_ns
    tlb_p = runner._tlb_miss_probability
    walk_ns = runner._flat_walk_ns
    quantum = TIME_QUANTUM_NS
    workload = runner.workload
    num_cores = runner.config.num_cores
    arrivals = runner.arrivals
    open_loop = not isinstance(arrivals, ClosedLoop)
    queues = runner._queues
    next_job = runner._next_job
    finish_job = runner._finish_job
    make_job = workload.make_job
    advance = engine.advance_batch
    vstats = _STATS

    if num_cores != 1:
        vstats["multi_core_runs"] += 1
    elif open_loop:
        vstats["open_loop_runs"] += 1
    else:
        vstats["fused_runs"] += 1

    runner._vector_tlb_rng = BatchedRandom(runner._rng)
    tlb_take = runner._vector_tlb_rng.take

    plan_block = getattr(workload, "plan_step_block", None)
    dealt = plan_block is not None
    steps_per_job = workload.uniform_steps_per_job if dealt else 0
    # Dealt-path buffers: per-step (compute + walk) deltas and miss
    # flags, 1:1 aligned with the TLB cursor.  Generic path: raw TLB
    # draws only; compute comes from the job's own step generator.
    d1_buf: List[float] = []
    flag_buf: List[bool] = []
    buf_pos = 0
    draw_buf: List[float] = []
    draw_pos = 0

    gap_draw = getattr(arrivals, "gap_block", None)
    gap_buf: List[float] = []
    gap_pos = 0
    gaps_dead = False

    # Event slots.  Core: [time, seq, busy_to_charge, job_to_finish];
    # arrival: [time, seq, started] (started=False is the spawn resume
    # that draws the first gap without delivering a job).
    seq = 0
    arr_evt: List[Optional[list]] = []
    if open_loop:
        for _ in range(num_cores):
            arr_evt.append([0.0, seq, False])
            seq += 1
    core_evt: List[Optional[list]] = []
    for _ in range(num_cores):
        core_evt.append([0.0, seq, 0.0, None])
        seq += 1
    meas: Optional[list] = [warmup, seq]
    ctr = seq + 1

    core_job: List[Optional[object]] = [None] * num_cores
    core_left = [0] * num_cores      # dealt: steps left in current job
    core_pull = [None] * num_cores   # generic: bound job.next_step
    parked = [False] * num_cores

    delta_events = 0
    busy_ns = runner._busy_ns
    accesses = runner._accesses
    accesses_start = accesses
    tlb_misses = 0
    jobs_done = 0
    bursts_done = 0
    arrivals_done = 0

    while True:
        # Global (time, seq) minimum over the pending slots.
        btime = None
        bseq = 0
        bkind = 0   # 1 = core, 2 = arrival, 3 = measurement
        bidx = 0
        for i in range(num_cores):
            e = core_evt[i]
            if e is not None and (btime is None or e[0] < btime
                                  or (e[0] == btime and e[1] < bseq)):
                btime, bseq, bkind, bidx = e[0], e[1], 1, i
        for s in range(len(arr_evt)):
            e = arr_evt[s]
            if e is not None and (btime is None or e[0] < btime
                                  or (e[0] == btime and e[1] < bseq)):
                btime, bseq, bkind, bidx = e[0], e[1], 2, s
        if meas is not None and (btime is None or meas[0] < btime
                                 or (meas[0] == btime and meas[1] < bseq)):
            btime, bseq, bkind = meas[0], meas[1], 3
        if btime is None or btime > end:
            break

        if bkind == 3:
            # advance() credits this event itself (+1) and lands the
            # shadow counters so the start_measurement snapshots see
            # exactly the scalar state.
            advance(warmup, delta_events + 1)
            delta_events = 0
            runner._busy_ns = busy_ns
            runner._accesses = accesses
            runner._start_measurement()
            meas = None
            continue

        delta_events += 1
        t = btime
        engine._now = t

        if bkind == 2:
            e = arr_evt[bidx]
            if e[2]:
                job = make_job()
                job.arrived_at = t
                queues[bidx].append(job)
                arrivals_done += 1
                if parked[bidx]:
                    # _wake: the core's resume outranks (by seq) the
                    # next arrival scheduled just below — scalar order.
                    parked[bidx] = False
                    core_evt[bidx] = [t, ctr, 0.0, None]
                    ctr += 1
            else:
                e[2] = True
            if gaps_dead:
                gap = None
            elif gap_draw is not None:
                if gap_pos >= len(gap_buf):
                    gap_buf = gap_draw(ARRIVAL_GAP_BLOCK)
                    gap_pos = 0
                if gap_pos < len(gap_buf):
                    gap = gap_buf[gap_pos]
                    gap_pos += 1
                else:
                    gap = None
                    gaps_dead = True  # finite source ran dry
            else:
                gap = arrivals.next_gap_ns()
            if gap is None:
                arr_evt[bidx] = None  # this stream's process returns
            else:
                e[0] = t + gap
                e[1] = ctr
                ctr += 1
            continue

        # Core event: charge the pending burst, finish its job if the
        # burst was the trailing flush, then continue the dispatch /
        # step loop until the core parks or schedules its next resume.
        e = core_evt[bidx]
        core_evt[bidx] = None
        busy_ns += e[2]
        fin = e[3]
        if fin is not None:
            finish_job(fin)
        while True:
            job = core_job[bidx]
            if job is None:
                job = next_job(bidx)
                if job is None:
                    parked[bidx] = True
                    break
                job.started_at = t
                core_job[bidx] = job
                jobs_done += 1
                if dealt:
                    core_left[bidx] = steps_per_job
                else:
                    core_pull[bidx] = job.next_step
            acc = 0.0
            done = False
            if dealt:
                left = core_left[bidx]
                while left:
                    if buf_pos >= len(d1_buf):
                        comp = plan_block(MERGED_STEP_CHUNK)
                        missed = tlb_take(MERGED_STEP_CHUNK) < tlb_p
                        d1_buf = (comp + np.where(missed, walk_ns,
                                                  0.0)).tolist()
                        flag_buf = missed.tolist()
                        buf_pos = 0
                    acc += d1_buf[buf_pos]
                    acc += flat
                    if flag_buf[buf_pos]:
                        tlb_misses += 1
                    buf_pos += 1
                    accesses += 1
                    left -= 1
                    if acc >= quantum:
                        break
                core_left[bidx] = left
                done = not left
            else:
                pull = core_pull[bidx]
                while True:
                    step = pull()
                    if step is None:
                        done = True
                        break
                    if draw_pos >= len(draw_buf):
                        draw_buf = tlb_take(MERGED_STEP_CHUNK).tolist()
                        draw_pos = 0
                    draw = draw_buf[draw_pos]
                    draw_pos += 1
                    if draw < tlb_p:
                        tlb_misses += 1
                        acc += step.compute_ns + walk_ns
                    else:
                        acc += step.compute_ns + 0.0
                    acc += flat
                    accesses += 1
                    if acc >= quantum:
                        break
            if acc >= quantum:
                # Quantum crossing: schedule the resume.  If the job
                # also ran out of steps, the resume discovers that with
                # a zero accumulator and finishes then — scalar order.
                core_evt[bidx] = [t + acc, ctr, acc, None]
                ctr += 1
                bursts_done += 1
                break
            if done:
                if acc > 0.0:
                    # Trailing flush: busy charged and the job finished
                    # at the resume (the scalar `yield accumulated`
                    # before _finish_job).
                    core_evt[bidx] = [t + acc, ctr, acc, job]
                    ctr += 1
                    bursts_done += 1
                    core_job[bidx] = None
                    break
                finish_job(job)
                core_job[bidx] = None
                # Dispatch the next job at the same instant (the
                # scalar loop's fall-through to _next_job).

    if meas is not None:  # pragma: no cover - defensive; warmup <= end
        advance(warmup, delta_events + 1)
        delta_events = 0
        runner._busy_ns = busy_ns
        runner._accesses = accesses
        runner._start_measurement()
    advance(end, delta_events)
    runner._busy_ns = busy_ns
    runner._accesses = accesses
    if tlb_misses:
        runner._tlb_miss_count.add(tlb_misses)
    vstats["batched_jobs"] += jobs_done
    vstats["batched_steps"] += accesses - accesses_start
    vstats["epochs"] += bursts_done
    vstats["merged_arrivals"] += arrivals_done
