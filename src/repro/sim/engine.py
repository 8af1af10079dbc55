"""Discrete-event simulation kernel.

The kernel is deliberately small and dependency-free: an event queue
ordered by ``(time, sequence)`` plus a generator-based *process* layer
in :mod:`repro.sim.process`.  All hardware components in the library
are built on top of these two primitives.

Times are floats in nanoseconds (see :mod:`repro.units`).  Ties are
broken by insertion order, which makes runs fully deterministic for a
given seed.

The kernel is process-native (DESIGN.md §4c).  The heap holds
``(time, seq, target, value)`` tuples, so sift comparisons run at C
speed (``seq`` is unique, so the tuple order never consults the
target).  Almost every entry wakes a :class:`~repro.sim.process.Process`,
and :meth:`Engine.run` resumes it inline: it sends ``value`` into the
generator and pushes a float yield straight back on the heap, with no
per-event object or call frame.  Plain callbacks (:meth:`Engine.schedule`)
are the rare case and the only cancellable one: they get an
:class:`Event` handle, and the heap is compacted in place when
cancelled entries outnumber live ones.  None of this changes
semantics — pop order is the same ``(time, seq)`` total order the
kernel has always used.

A run ends with :meth:`Engine.close`: unfinished processes hold their
owners (the runner, the controllers, the flash device) in suspended
frames, and the queue and signal waiter lists hold those processes, so
the engine keeps its live waiters (processes and unfired
:func:`~repro.sim.process.observe` callbacks) for ``close`` to release.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

Callback = Callable[..., None]

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
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time: float, seq: int, callback: Callback, args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else (" fired" if self.fired else "")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.1f} #{self.seq} {name}{state}>"


class Engine:
    """The event loop.

    ``now`` is the current simulation time in nanoseconds; only the
    engine advances it.

    >>> engine = Engine()
    >>> fired = []
    >>> _ = engine.schedule(10.0, fired.append, "a")
    >>> _ = engine.schedule(5.0, fired.append, "b")
    >>> engine.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Any, Any]] = []
        self._seq = 0
        self._running = False
        self._cancelled_in_queue = 0
        # Live waiters (processes and observers) for close(); a dict
        # keeps start order, so close() releases them in a fixed order.
        self._live: Dict[Any, None] = {}
        self._closed = False
        # Kernel health/throughput telemetry (repro.perf reads these).
        self.events_executed = 0
        self.compactions = 0

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callback, *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, event, None))
        return event

    def resume(self, target: Any, value: Any = None, delay: float = 0.0) -> None:
        """Wake ``target`` with ``value`` after ``delay`` nanoseconds.

        ``target`` is a :class:`~repro.sim.process.Process` (resumed
        inline by :meth:`run`) or any object with a ``_resume(value)``
        method.  Wake-ups cannot be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, target, value))

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.

        Cancelling twice is an error, and so is cancelling an event
        that already executed: it has left the heap, so counting it as
        a cancelled entry would corrupt :attr:`pending_events`.
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
        self._cancelled_in_queue += 1
        if (self._cancelled_in_queue * 2 > len(self._queue)
                and len(self._queue) >= _MIN_COMPACT_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap in place.

        Long sweeps that schedule-then-cancel (timeout patterns, the
        Fig. 10 load ladder) would otherwise grow the heap without
        bound and pay ``log``-of-garbage on every push/pop.  Rebuilding
        preserves pop order exactly: ``(time, seq)`` is a total order,
        so the filtered heap yields the same sequence of live entries.
        Process wake-ups cannot be cancelled and are always kept.

        The list object is mutated in place (slice assignment) because
        ``run`` holds a local reference to it while executing.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if entry[2].__class__ is not Event or not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none left."""
        return self._dispatch(float("inf"), 1) == 1

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until simulation time ``until``.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if the last event fired earlier.
        """
        # One float compare per event instead of a None test plus a
        # compare; event times are always finite.
        self._dispatch(float("inf") if until is None else until, -1)
        if until is not None and self.now < until:
            self.now = until

    def _dispatch(self, horizon: float, limit: int) -> int:
        """Execute events up to time ``horizon``, at most ``limit`` of
        them (``-1``: no limit).  Returns how many executed.

        A :class:`Process` target is resumed here: ``value`` is sent
        into its generator, a float yield goes straight back on the
        heap and any other yield goes to ``Process._wait_on``.  An
        :class:`Event` runs its callback unless cancelled; any other
        target gets ``target._resume(value)``.
        """
        if self._running:
            raise SimulationError("engine.run() re-entered")
        if self._closed:
            raise SimulationError("engine closed: its run has ended")
        self._running = True
        # Bound once per call, not per event: process.py imports this
        # module, so the import cannot sit at module level.
        from repro.sim.process import Process
        # Local bindings: attribute lookups cost on every iteration of
        # the hottest loop in the simulator.  ``queue`` stays valid
        # across events because pushes and compaction mutate the same
        # list object in place.
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        executed = 0
        try:
            while queue and executed != limit:
                entry = queue[0]
                time = entry[0]
                if time > horizon:
                    break
                heappop(queue)
                target = entry[2]
                kind = target.__class__
                if kind is Process:
                    self.now = time
                    executed += 1
                    if target.finished:
                        continue
                    try:
                        yielded = target.generator.send(entry[3])
                    except StopIteration as stop:
                        target._finish(stop.value)
                        continue
                    if yielded.__class__ is float:
                        if yielded < 0:
                            raise SimulationError(
                                f"cannot schedule into the past (delay={yielded})"
                            )
                        seq = self._seq
                        self._seq = seq + 1
                        heappush(queue, (time + yielded, seq, target, None))
                    else:
                        target._wait_on(yielded)
                elif kind is Event:
                    if target.cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                    target.fired = True
                    self.now = time
                    executed += 1
                    target.callback(*target.args)
                else:
                    self.now = time
                    executed += 1
                    target._resume(entry[3])
        finally:
            self.events_executed += executed
            global _total_events
            _total_events += executed
            self._running = False
        return executed

    def close(self) -> None:
        """End the run: close every unfinished process's generator,
        drop every unfired observer callback and empty the queue.

        Closing a generator runs its ``finally`` blocks, which only
        reset the owner's in-flight flags.  The clock, the counters and
        every model object stay as the run left them, so a finished
        run stays readable; running the engine again raises.
        """
        self._closed = True
        live, self._live = self._live, {}
        for waiter in live:
            waiter.release()
        self._queue.clear()
        self._cancelled_in_queue = 0

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) entries in the queue."""
        return len(self._queue) - self._cancelled_in_queue

    def __repr__(self) -> str:
        return f"<Engine t={self.now:.1f} pending={self.pending_events}>"
