"""Frontside and backside DRAM-cache controllers (Sec. IV-B, Fig. 5).

The **frontside controller (FC)** extends a traditional DRAM controller:
it probes the in-row tags for every request, serves hits, and forwards
misses to the backside controller's queue, stalling when that queue is
full.  It is a 1-cycle FSM.

A duplicate miss to a page whose refill is already pending never
reaches the BC: the FC merges it in its own pending table onto the
first miss's request, and the thread waits on that request's install
signal.

The **backside controller (BC)** is programmable (3 cycles/command).
For each miss it searches the Miss Status Row (one command), allocates
an MSR entry (waiting when the table is full), issues the 4 KiB flash
read, selects and evicts a victim (dirty victims go through a bounded
evict buffer and are written back off the critical path), installs the
arriving page, and releases the MSR entry — firing the install signal
that wakes the threads parked on the miss.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config.system import DramCacheConfig
from repro.dramcache.footprint import FootprintPredictor
from repro.dramcache.msr import MissStatusRow
from repro.dramcache.organization import DramCacheOrganization
from repro.dramcache.timing import DramCacheTiming
from repro.errors import DeviceFailedError, FlashTimeoutError, ProtocolError
from repro.flash.device import FlashDevice
from repro.obs.tracer import active as _tracer_active
from repro.sim import Engine, Ready, Server, Signal, Store, observe, spawn
from repro.units import US


class MissRequest:
    """A DRAM-cache miss travelling from FC to BC.

    ``install_signal`` fires (with this request as payload) once the
    page is resident; every thread that missed on the page waits on it.
    """

    __slots__ = ("page", "is_write", "created_at", "install_signal",
                 "coalesced", "installed_at", "flash_issued_at",
                 "flash_done_at", "fault_stall_ns")

    def __init__(self, engine: Engine, page: int, is_write: bool) -> None:
        self.page = page
        self.is_write = is_write
        self.created_at = engine.now
        self.install_signal = Signal(engine, f"install:{page}")
        self.coalesced = 0
        self.installed_at: Optional[float] = None
        # Lifecycle stamps for the observability layer: when the BC
        # issued the flash read and when the page arrived.  Always
        # recorded (two stores per miss) so the tracer can decompose a
        # parked thread's wait into MSR wait / flash read / install.
        self.flash_issued_at: Optional[float] = None
        self.flash_done_at: Optional[float] = None
        # Time burned on failed flash attempts (timeouts, uncorrectable
        # replies) before the read that finally delivered data; the
        # tracer charges it as the ``fault_stall`` component.
        self.fault_stall_ns = 0.0

    def __repr__(self) -> str:
        return f"<MissRequest page={self.page} coalesced={self.coalesced}>"


class AccessResult:
    """Outcome of a frontside-controller access.

    * hit:   ``latency_ns`` is the full in-DRAM hit latency.
    * miss:  ``latency_ns`` is the time until the miss signal reaches
      the requesting core; ``completion`` fires when the page has been
      installed and the access can replay.
    """

    __slots__ = ("hit", "latency_ns", "completion")

    def __init__(self, hit: bool, latency_ns: float,
                 completion: Optional[Signal] = None) -> None:
        self.hit = hit
        self.latency_ns = latency_ns
        self.completion = completion

    def __repr__(self) -> str:
        kind = "hit" if self.hit else "miss"
        return f"<AccessResult {kind} {self.latency_ns:.1f} ns>"


class BacksideController:
    """Programmable miss handler between the DRAM cache and flash."""

    def __init__(self, engine: Engine, config: DramCacheConfig,
                 timing: DramCacheTiming,
                 organization: DramCacheOrganization,
                 flash: FlashDevice,
                 admission=None) -> None:
        self.engine = engine
        self.config = config
        self.timing = timing
        self.organization = organization
        self.flash = flash
        # DRAM→flash admission policy (DESIGN.md §4j): None unless the
        # write path is enabled, so dirty evictions keep their original
        # unconditional-writeback branch and goldens stay bit-identical.
        self._admission = admission
        self.footprint: Optional[FootprintPredictor] = None
        if config.footprint_enabled:
            self.footprint = FootprintPredictor(
                region_pages=config.footprint_region_pages,
                safety_blocks=config.footprint_safety_blocks,
            )
        # Blocks fetched for each resident page (footprint training).
        self._fetched_blocks: Dict[int, int] = {}
        self.msr = MissStatusRow(engine, config.msr_entries)
        self.miss_queue = Store(engine, capacity=config.miss_queue_entries,
                                name="bc-miss-queue")
        self.evict_buffer = Server(engine, capacity=config.evict_buffer_entries,
                                   name="bc-evict-buffer")
        self._tracer = _tracer_active()
        # Resilience path (DESIGN.md §4f): armed only when the flash
        # device runs under fault injection.  Timeout scales off the
        # nominal sense latency so config sweeps keep the ratio.
        self._faults = flash.faults
        self._read_timeout_ns = 0.0
        if self._faults is not None:
            self._read_timeout_ns = (self._faults.config.bc_timeout_factor
                                     * flash.config.read_latency_ns)
        spawn(engine, self._accept_loop(), name="bc-accept")

    # -- admission ------------------------------------------------------------

    def _accept_loop(self):
        """Pop miss requests, gate on MSR capacity, spawn handlers."""
        while True:
            slot = self.miss_queue.get()
            if isinstance(slot, Ready):
                request = slot.item
            else:
                request = yield slot
            # MSR search (a CAS) before allocating.  Duplicates were
            # already merged in the FC's pending table, so it never
            # finds one.
            yield self.timing.backside_command_ns
            while True:
                wait = self.msr.wait_for_free()
                if wait is None:
                    break
                yield wait
            self.msr.allocate(request.page)
            spawn(self.engine, self._handle_miss(request),
                  name=f"bc-miss:{request.page}")

    # -- miss handling -----------------------------------------------------------

    def _issue_flash_read(self, request: MissRequest) -> Signal:
        """Issue the page read to flash.  With the footprint extension
        only the predicted blocks cross the channel/PCIe, cutting
        refill bandwidth."""
        if self.footprint is not None:
            blocks = self.footprint.predict_blocks(request.page)
            self._fetched_blocks[request.page] = blocks
            return self.flash.read(
                request.page, num_bytes=self.footprint.predict_bytes(request.page)
            )
        return self.flash.read(request.page)

    def _handle_miss(self, request: MissRequest):
        # Issue the page read to flash (one BC command).
        yield self.timing.backside_command_ns
        if self._faults is not None:
            yield from self._await_read_resilient(request)
        else:
            read_signal = self._issue_flash_read(request)
            request.flash_issued_at = self.engine.now

            # While flash works (~50 us), secure space in the target set.
            yield from self._make_room(request.page)

            # Wait for the page to arrive over PCIe.
            yield read_signal
        request.flash_done_at = self.engine.now

        # Install data + tag into the designated set and way.
        yield self.timing.backside_command_ns + self.timing.page_install_ns
        self.organization.install(request.page, dirty=request.is_write)
        request.installed_at = self.engine.now
        self.msr.release(request.page)
        request.install_signal.fire(request)
        if self._tracer is not None:
            self._tracer.complete(
                "bc", "miss", request.created_at, request.installed_at,
                {"page": request.page, "coalesced": request.coalesced},
            )

    def _await_read_resilient(self, request: MissRequest):
        """Issue-with-timeout loop under fault injection.

        Each attempt races the flash completion against a BC deadline
        (:class:`FlashTimeoutError` as the losing payload).  Timed-out
        or uncorrectable attempts are counted, charged to the
        request's ``fault_stall_ns``, and reissued — bounded by
        ``bc_max_reissues`` before :class:`DeviceFailedError` surfaces.
        Late completions of abandoned attempts are dropped by the
        settled guard.  The victim-way reservation overlaps the first
        attempt only; reissues reuse it.
        """
        plan = self._faults
        cfg = plan.config
        flash_stats = self.flash.stats
        attempts = 0
        while True:
            if attempts > 0:
                # Reissue is a fresh BC command.
                yield self.timing.backside_command_ns
            attempt_start = self.engine.now
            read_signal = self._issue_flash_read(request)
            if attempts == 0:
                request.flash_issued_at = attempt_start
            attempts += 1
            outcome = self._arm_timeout(read_signal, request.page)
            if attempts == 1:
                # While flash works, secure space in the target set.
                yield from self._make_room(request.page)
            payload = yield outcome
            if isinstance(payload, FlashTimeoutError):
                flash_stats["bc_timeouts"] += 1.0
            elif getattr(payload, "failed", False):
                flash_stats["bc_uncorrectable_replies"] += 1.0
            else:
                return  # data arrived
            stall_ns = self.engine.now - attempt_start
            request.fault_stall_ns += stall_ns
            # Cumulative fault-stall counter: only the resilient path
            # (fault plan active) reaches here, so faults-disabled runs
            # never grow this key and goldens stay bit-identical.
            flash_stats["bc_fault_stall_ns"] += stall_ns
            self.msr.note_reissue(request.page)
            if 0 < cfg.plane_failure_threshold <= attempts:
                # One page failing attempt after attempt is the
                # controller's evidence the plane is bad: route its
                # reads through the degraded mirror path so the
                # reissue chain terminates.
                plan.mark_plane_failing(self.flash.ftl.plane_of(request.page))
            if attempts > cfg.bc_max_reissues:
                raise DeviceFailedError(
                    f"flash read of page {request.page} failed "
                    f"{attempts} attempts ({cfg.bc_max_reissues} "
                    "reissues allowed): device considered failed"
                )
            flash_stats["bc_reissues"] += 1.0
            if self._tracer is not None:
                self._tracer.instant(
                    "bc", "flash_reissue", self.engine.now,
                    {"page": request.page, "attempt": attempts},
                )

    def _arm_timeout(self, read_signal: Signal, page: int) -> Signal:
        """Race ``read_signal`` against the BC deadline.

        Returns a signal that fires with the flash payload when the
        read wins or a :class:`FlashTimeoutError` instance when the
        deadline does.  Whichever side settles first wins; the pending
        timeout event is cancelled on completion (it has neither fired
        nor been cancelled at that point, so the cancel is legal) and a
        late completion after a timeout is silently dropped.
        """
        engine = self.engine
        timeout_ns = self._read_timeout_ns
        outcome = Signal(engine, f"bc-read-outcome:{page}")
        settled = [False]

        def on_timeout() -> None:
            if settled[0]:
                return
            settled[0] = True
            outcome.fire(FlashTimeoutError(
                f"flash read of page {page} exceeded {timeout_ns:.0f} ns"
            ))

        timeout_event = engine.schedule(timeout_ns, on_timeout)

        def on_complete(payload) -> None:
            if settled[0]:
                return  # abandoned attempt finishing late
            settled[0] = True
            engine.cancel(timeout_event)
            outcome.fire(payload)

        observe(read_signal, on_complete)
        return outcome

    def _make_room(self, page: int):
        """Reserve a way, retrying if every way is transiently reserved."""
        while True:
            try:
                evicted = self.organization.reserve_victim(page)
            except ProtocolError:
                # Every way of the set has a refill in flight; wait for
                # one to land and retry.  Rare by construction.
                yield 1.0 * US
                continue
            break
        if evicted is not None and self.footprint is not None:
            fetched = self._fetched_blocks.pop(
                evicted.page, self.footprint.blocks_per_page
            )
            self.footprint.record_eviction(
                evicted.page, evicted.access_count, fetched
            )
        if evicted is not None and evicted.dirty:
            admission = self._admission
            if admission is not None:
                if admission.propagate_writes:
                    # Write-through already programmed every store;
                    # the evicted copy carries no new data.
                    self.flash.stats["writeback_elided"] += 1.0
                    return
                if not admission.admit_writeback(evicted.page):
                    # Flashield-style drop: the page never earned
                    # flash admission (too few recent reads); it
                    # refaults from the backing copy instead of
                    # burning a program.  Counted on the flash stats,
                    # which reach results.
                    self.flash.stats["admission_rejects"] += 1.0
                    if self._tracer is not None:
                        self._tracer.instant(
                            "bc", "admission_reject", self.engine.now,
                            {"page": evicted.page})
                    return
            # Copy into the evict buffer (blocking when full), then
            # write back off the critical path.
            grant = self.evict_buffer.acquire()
            if grant is not None:
                yield grant
            yield self.timing.page_install_ns  # row read into the buffer
            if self._tracer is not None:
                self._tracer.instant("bc", "writeback", self.engine.now,
                                     {"page": evicted.page})
            spawn(self.engine, self._writeback(evicted.page),
                  name=f"bc-writeback:{evicted.page}")

    def _writeback(self, page: int):
        write_signal = self.flash.write(page)
        yield write_signal
        self.evict_buffer.release()

    def write_through(self, page: int) -> None:
        """Write-through admission hook: the FC calls this on every
        store; the program runs through the same bounded evict buffer
        and flash write path as a dirty writeback, off the critical
        path of the store itself."""
        spawn(self.engine, self._write_through_process(page),
              name=f"bc-writethrough:{page}")

    def _write_through_process(self, page: int):
        grant = self.evict_buffer.acquire()
        if grant is not None:
            yield grant
        yield self.timing.page_install_ns  # row read into the buffer
        yield from self._writeback(page)


class FrontsideController:
    """Hit/miss decision logic in front of the DRAM cache."""

    def __init__(self, engine: Engine, config: DramCacheConfig,
                 timing: DramCacheTiming,
                 organization: DramCacheOrganization,
                 backside: BacksideController,
                 admission=None) -> None:
        self.engine = engine
        self.config = config
        self.timing = timing
        self.organization = organization
        self.backside = backside
        # Write-path admission policy; None on the default path.
        self._admission = admission
        # The organization's per-set tag index, probed by access();
        # bound once, since load_state refills the per-set dicts in
        # place.
        self._tag_index = organization.tag_index
        self._set_mask = organization.set_mask
        self._num_sets = organization.num_sets
        # All hits look alike and callers never mutate results, so one
        # shared instance serves every hit.
        self._hit_result = AccessResult(True, timing.hit_latency_ns)
        # Counts: plain ints bumped inline; counts() turns them into
        # the ``dramcache.*`` result counters.  ``accesses`` always
        # fires first, since every other count fires inside an access.
        self.accesses = 0
        self.misses = 0
        self.coalesced_misses = 0
        self.bc_queue_stalls = 0
        self._fired: List[str] = ["accesses"]
        # Misses currently pending (page -> MissRequest) so duplicate
        # misses coalesce onto one flash read.
        self._pending: Dict[int, MissRequest] = {}

    def access(self, page: int, is_write: bool = False) -> AccessResult:
        """Probe the cache for one request from the on-chip hierarchy.

        A hit is handled entirely here, tag probe included, in one
        Python frame: it ticks the organization's LRU clock, touches
        the way (dirty for a write), counts the hit and returns the
        shared hit result with the full hit latency.  A miss returns
        the miss-signal latency plus a completion signal that fires
        when the refill lands.
        """
        self.accesses += 1
        admission = self._admission
        if admission is not None:
            if is_write:
                # Application stores, window-scoped later by the GC
                # baselines; on the flash stats so they reach results.
                self.backside.flash.stats["app_writes"] += 1.0
                if admission.propagate_writes:
                    self.backside.write_through(page)
            else:
                admission.observe_read(page)
        org = self.organization
        clock = org.clock + 1
        org.clock = clock
        mask = self._set_mask
        way = self._tag_index[page & mask if mask is not None
                              else page % self._num_sets].get(page)
        if way is not None:
            way.last_touch = clock
            way.access_count += 1
            if is_write:
                way.dirty = True
            hits = org.hits
            if not hits:
                org.fired.append("hits")
            org.hits = hits + 1
            return self._hit_result
        if not org.misses:
            org.fired.append("misses")
        org.misses += 1

        pending = self._pending.get(page)
        if pending is not None:
            pending.coalesced += 1
            if is_write:
                pending.is_write = True
            if not self.coalesced_misses:
                self._fired.append("coalesced_misses")
            self.coalesced_misses += 1
            return AccessResult(
                False, self.timing.miss_detect_ns,
                completion=pending.install_signal,
            )

        request = MissRequest(self.engine, page, is_write)
        self._pending[page] = request
        if not self.misses:
            self._fired.append("misses")
        self.misses += 1
        if not self.backside.miss_queue.try_put(request):
            # BC queue full: FC stalls until space frees up; the stall
            # is modelled as a background put so the core still sees
            # the miss signal at the architected latency.
            if not self.bc_queue_stalls:
                self._fired.append("bc_queue_stalls")
            self.bc_queue_stalls += 1
            spawn(self.engine, self._blocking_put(request), name="fc-stall")
        self._arm_cleanup(request)
        return AccessResult(
            False, self.timing.miss_detect_ns,
            completion=request.install_signal,
        )

    def counts(self) -> Dict[str, float]:
        """The counts as floats, in first-fire order and absent until
        fired: the run's ``dramcache.*`` counters."""
        if not self.accesses:
            return {}
        return {key: float(getattr(self, key)) for key in self._fired}

    def _blocking_put(self, request: MissRequest):
        signal = self.backside.miss_queue.put(request)
        if signal is not None:
            yield signal

    def _arm_cleanup(self, request: MissRequest) -> None:
        def cleanup(_value):
            self._pending.pop(request.page, None)
            # The fired signal keeps this request as its payload; drop
            # the back-reference so the pair is not cyclic garbage.
            request.install_signal = None

        observe(request.install_signal, cleanup)
