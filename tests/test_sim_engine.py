"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Signal, observe, spawn


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(10.0, fired.append, "late")
    engine.schedule(5.0, fired.append, "early")
    engine.schedule(7.5, fired.append, "middle")
    engine.run()
    assert fired == ["early", "middle", "late"]


def test_ties_break_by_insertion_order():
    engine = Engine()
    fired = []
    for label in ("a", "b", "c"):
        engine.schedule(1.0, fired.append, label)
    engine.run()
    assert fired == ["a", "b", "c"]


def test_now_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule(42.0, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [42.0]
    assert engine.now == 42.0


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(10.0, fired.append, "in-window")
    engine.schedule(100.0, fired.append, "after-window")
    engine.run(until=50.0)
    assert fired == ["in-window"]
    assert engine.now == 50.0
    engine.run()
    assert fired == ["in-window", "after-window"]


def test_run_until_advances_clock_even_without_events():
    engine = Engine()
    engine.run(until=123.0)
    assert engine.now == 123.0


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(10.0, fired.append, "cancel-me")
    engine.schedule(5.0, fired.append, "keep-me")
    engine.cancel(event)
    engine.run()
    assert fired == ["keep-me"]


def test_double_cancel_raises():
    engine = Engine()
    event = engine.schedule(10.0, lambda: None)
    engine.cancel(event)
    with pytest.raises(SimulationError):
        engine.cancel(event)


def test_cancel_after_fire_raises():
    engine = Engine()
    event = engine.schedule(10.0, lambda: None)
    engine.run()
    assert event.fired
    with pytest.raises(SimulationError):
        engine.cancel(event)


def test_cancel_after_fire_does_not_corrupt_pending_count():
    # The old accounting decremented the live-event count for an event
    # that had already been popped and executed, driving pending_events
    # negative.
    engine = Engine()
    event = engine.schedule(1.0, lambda: None)
    engine.run()
    assert engine.pending_events == 0
    with pytest.raises(SimulationError):
        engine.cancel(event)
    assert engine.pending_events == 0
    engine.schedule(1.0, lambda: None)
    assert engine.pending_events == 1


def test_stale_handle_cannot_cancel_a_later_event():
    # A fired event's handle must stay dead: it may not alias a newer
    # event, or cancelling it would silently drop an unrelated callback.
    engine = Engine()
    fired = []
    first = engine.schedule(1.0, fired.append, "first")
    engine.run()
    engine.schedule(1.0, fired.append, "second")
    with pytest.raises(SimulationError):
        engine.cancel(first)
    engine.run()
    assert fired == ["first", "second"]


def test_cancel_after_step_raises():
    engine = Engine()
    fired = []
    event = engine.schedule(1.0, fired.append, 1)
    assert engine.step()
    with pytest.raises(SimulationError):
        engine.cancel(event)


def test_scheduling_into_the_past_raises():
    engine = Engine()
    engine.schedule(10.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_at(5.0, lambda: None)


def test_events_scheduled_during_run_execute():
    engine = Engine()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            engine.schedule(1.0, chain, depth + 1)

    engine.schedule(0.0, chain, 0)
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.now == 3.0


def test_pending_events_counts_live_events():
    engine = Engine()
    event = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending_events == 2
    engine.cancel(event)
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


def test_step_executes_one_event():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, 1)
    engine.schedule(2.0, fired.append, 2)
    assert engine.step()
    assert fired == [1]
    assert engine.step()
    assert not engine.step()


def test_step_resumes_a_process_one_event_at_a_time():
    engine = Engine()
    trace = []

    def worker():
        trace.append(engine.now)
        yield 10.0
        trace.append(engine.now)
        yield 5.0
        trace.append(engine.now)

    spawn(engine, worker())
    assert engine.step()
    assert trace == [0.0]
    assert engine.step()
    assert trace == [0.0, 10.0]
    assert engine.step()
    assert trace == [0.0, 10.0, 15.0]
    assert not engine.step()
    assert engine.events_executed == 3


def test_same_time_targets_fire_in_schedule_order():
    # Callbacks, process sleeps, signal wake-ups and observers share one
    # (time, seq) order: same-time targets run in the order they were
    # queued, whatever kind of target they are.
    engine = Engine()
    order = []
    go = Signal(engine, "go")

    def sleeper():
        yield 5.0
        order.append("sleeper")

    def waiter():
        value = yield go
        order.append(("waiter", value))

    def firer():
        yield 5.0
        order.append("firer")
        go.fire("v")

    engine.schedule(5.0, order.append, "callback-first")
    spawn(engine, sleeper())
    spawn(engine, waiter())
    observe(go, lambda value: order.append(("observer", value)))
    spawn(engine, firer())
    engine.schedule(5.0, order.append, "callback-last")
    engine.run()
    assert order == ["callback-first", "callback-last", "sleeper", "firer",
                     ("observer", "v"), ("waiter", "v")]
    # Three process starts, two sleeps, two callbacks, two wake-ups.
    assert engine.events_executed == 9


def test_cancel_heavy_queue_is_compacted_and_bounded():
    engine = Engine()
    fired = []
    for index in range(10):
        engine.schedule(10_000.0 + index, fired.append, index)
    for _ in range(50):
        events = [engine.schedule(5_000.0, fired.append, -1)
                  for _ in range(100)]
        for event in events:
            engine.cancel(event)
        # Dead entries must never accumulate across rounds: compaction
        # keeps the heap within a small multiple of the live count.
        assert len(engine._queue) <= 300
    assert engine.compactions > 0
    assert engine.pending_events == 10
    engine.run()
    assert fired == list(range(10))


def test_compaction_preserves_pop_order():
    engine = Engine()
    fired = []
    keepers = []
    for index in range(200):
        event = engine.schedule(float(index), fired.append, index)
        if index % 3 == 0:
            keepers.append(index)
        else:
            engine.cancel(event)
    assert engine.compactions >= 1
    engine.run()
    assert fired == keepers


def test_compaction_skips_tiny_queues():
    engine = Engine()
    events = [engine.schedule(100.0, lambda: None) for _ in range(10)]
    for event in events:
        engine.cancel(event)
    # Below the compaction floor the dead entries just wait to be
    # popped; nothing should have been rebuilt.
    assert engine.compactions == 0
    engine.run()
    assert len(engine._queue) == 0


def test_compaction_keeps_process_wakeups():
    engine = Engine()
    woke = []

    def sleeper(index):
        yield 10.0 + index
        woke.append((index, engine.now))

    for index in range(8):
        spawn(engine, sleeper(index))
    engine.run(until=1.0)
    events = [engine.schedule(5.0, woke.append, "cancelled")
              for _ in range(100)]
    for event in events:
        engine.cancel(event)
    assert engine.compactions >= 1
    assert engine.pending_events == 8
    engine.run()
    assert woke == [(index, 10.0 + index) for index in range(8)]


def test_close_releases_unfinished_waiters():
    engine = Engine()
    cleanups = []
    seen = []

    def sleeper():
        try:
            yield 1_000.0
        finally:
            cleanups.append("sleeper")

    def parked(signal):
        try:
            yield signal
        finally:
            cleanups.append("parked")

    def quick():
        yield 1.0

    never = Signal(engine, "never")
    spawn(engine, sleeper())
    spawn(engine, parked(never))
    spawn(engine, quick())
    observe(never, seen.append)
    engine.run(until=10.0)
    executed = engine.events_executed
    engine.close()
    # Each unfinished generator ran its finally block, in start
    # order; the finished one and the fired events left nothing.
    assert cleanups == ["sleeper", "parked"]
    assert engine.pending_events == 0
    assert engine.now == 10.0 and engine.events_executed == executed
    # A closed engine resumes nothing: a late fire only queues, and
    # running it again raises.
    never.fire("late")
    with pytest.raises(SimulationError):
        engine.run()
    with pytest.raises(SimulationError):
        engine.step()
    assert seen == [] and engine.events_executed == executed


def test_finished_processes_and_fired_observers_leave_the_live_table():
    engine = Engine()
    signal = Signal(engine)
    seen = []

    def waiter():
        yield signal
        yield 5.0

    spawn(engine, waiter())
    observe(signal, seen.append)
    assert len(engine._live) == 2
    engine.schedule(1.0, signal.fire, "go")
    engine.run()
    assert seen == ["go"]
    assert engine._live == {}
