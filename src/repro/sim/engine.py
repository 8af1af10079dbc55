"""Discrete-event simulation kernel.

The kernel is deliberately small and dependency-free: an event queue
ordered by ``(time, sequence)`` plus a generator-based *process* layer
in :mod:`repro.sim.process`.  All hardware components in the library
are built on top of these two primitives.

Times are floats in nanoseconds (see :mod:`repro.units`).  Ties are
broken by insertion order, which makes runs fully deterministic for a
given seed.

The hot loop is tuned for CPython (DESIGN.md §4c): fired events are
recycled through a free list instead of being reallocated, ``run``
binds ``heappop``/callback plumbing to locals, the heap holds
``(time, seq, event)`` tuples so sift comparisons run at C speed
(``seq`` is unique, so the tuple order never consults the event), and
the heap is compacted in place when cancelled entries outnumber live
ones.  None of this changes semantics — pop order is the same
``(time, seq)`` total order the kernel has always used.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

Callback = Callable[..., None]

# Free-list bound: enough to absorb the steady-state churn of a large
# run without pinning an unbounded amount of dead-event memory.
_MAX_POOL = 4096

# Compaction triggers when the queue holds more cancelled than live
# entries; tiny queues are never worth rebuilding.
_MIN_COMPACT_QUEUE = 64

# Process-wide executed-event tally across all engines ever run.
# repro.perf reads deltas of this to derive events/sec for profiled
# runs that build many engines (one per simulation).
_total_events = 0


def total_events_executed() -> int:
    """Events executed by every engine in this process so far."""
    return _total_events


class Event:
    """A scheduled callback.

    Events are created through :meth:`Engine.schedule` /
    :meth:`Engine.schedule_at` and can be cancelled with
    :meth:`Engine.cancel`.  A cancelled event stays in the heap but is
    skipped when popped (unless compaction removes it first).  An event
    that has already executed is marked ``fired``; cancelling it
    afterwards is a protocol error.

    An :class:`Event` reference is only meaningful until the event
    fires or is cancelled — the kernel recycles dead events through a
    free list, so holding a handle past that point and cancelling it
    later is a protocol error the kernel can no longer always detect.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time: float, seq: int, callback: Callback, args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else (" fired" if self.fired else "")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.1f} #{self.seq} {name}{state}>"


class Engine:
    """The event loop.

    >>> engine = Engine()
    >>> fired = []
    >>> _ = engine.schedule(10.0, fired.append, "a")
    >>> _ = engine.schedule(5.0, fired.append, "b")
    >>> engine.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Event] = []
        self._seq = 0
        self._running = False
        self._live_events = 0
        self._cancelled_in_queue = 0
        self._pool: List[Event] = []
        # Kernel health/throughput telemetry (repro.perf reads these).
        self.events_executed = 0
        self.compactions = 0

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callback, *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # Body of schedule_at, inlined: this is the most frequent entry
        # point into the kernel and the extra call frame shows up.
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.fired = False
        else:
            event = Event(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, event))
        self._live_events += 1
        return event

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.fired = False
        else:
            event = Event(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, event))
        self._live_events += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.

        Cancelling twice is an error, and so is cancelling an event
        that already executed: the event was popped from the heap and
        its live-count slot reclaimed, so decrementing again would
        corrupt :attr:`pending_events`.
        """
        if event.fired:
            raise SimulationError(
                f"cannot cancel an event that already fired: {event!r}"
            )
        if event.cancelled:
            raise SimulationError(f"event already cancelled: {event!r}")
        event.cancelled = True
        event.callback = None
        event.args = ()
        self._live_events -= 1
        self._cancelled_in_queue += 1
        if (self._cancelled_in_queue * 2 > len(self._queue)
                and len(self._queue) >= _MIN_COMPACT_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap in place.

        Long sweeps that schedule-then-cancel (timeout patterns, the
        Fig. 10 load ladder) would otherwise grow the heap without
        bound and pay ``log``-of-garbage on every push/pop.  Rebuilding
        preserves pop order exactly: ``(time, seq)`` is a total order,
        so the filtered heap yields the same sequence of live events.

        The list object is mutated in place (slice assignment) because
        ``run`` holds a local reference to it while executing.
        """
        queue = self._queue
        pool = self._pool
        live = [entry for entry in queue if not entry[2].cancelled]
        if len(pool) < _MAX_POOL:
            dead = (entry[2] for entry in queue if entry[2].cancelled)
            pool.extend(
                event for event, _ in zip(dead, range(_MAX_POOL - len(pool)))
            )
        queue[:] = live
        heapq.heapify(queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none left."""
        while self._queue:
            time, _seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled_in_queue -= 1
                self._recycle(event)
                continue
            self._live_events -= 1
            event.fired = True
            self._now = time
            self.events_executed += 1
            global _total_events
            _total_events += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until simulation time ``until``.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if the last event fired earlier.
        """
        if self._running:
            raise SimulationError("engine.run() re-entered")
        self._running = True
        # Local bindings: attribute lookups cost on every iteration of
        # the hottest loop in the simulator.  ``queue`` stays valid
        # across callbacks because schedule/compact mutate the same
        # list object in place.
        queue = self._queue
        pool = self._pool
        heappop = heapq.heappop
        executed = 0
        # One float compare per iteration instead of a None test plus
        # a compare; event times are always finite.
        horizon = float("inf") if until is None else until
        try:
            while queue:
                entry = queue[0]
                if entry[0] > horizon:
                    break
                heappop(queue)
                event = entry[2]
                if event.cancelled:
                    self._cancelled_in_queue -= 1
                    if len(pool) < _MAX_POOL:
                        pool.append(event)
                    continue
                self._live_events -= 1
                event.fired = True
                self._now = entry[0]
                executed += 1
                callback = event.callback
                args = event.args
                # Release payload references early; the Event object
                # itself parks on the free list for reuse.
                event.callback = None
                event.args = ()
                if len(pool) < _MAX_POOL:
                    pool.append(event)
                callback(*args)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self.events_executed += executed
            global _total_events
            _total_events += executed
            self._running = False

    def _recycle(self, event: Event) -> None:
        """Park a dead event on the free list (bounded)."""
        event.callback = None
        event.args = ()
        if len(self._pool) < _MAX_POOL:
            self._pool.append(event)

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return self._live_events

    @property
    def queue_length(self) -> int:
        """Heap entries, including not-yet-compacted cancelled ones."""
        return len(self._queue)

    def __repr__(self) -> str:
        return f"<Engine t={self._now:.1f} pending={self.pending_events}>"
