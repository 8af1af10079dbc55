"""Unit tests for generator-based processes and signals."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Signal, spawn


def test_process_sleeps_by_yielding_floats():
    engine = Engine()
    trace = []

    def worker():
        trace.append(("start", engine.now))
        yield 10.0
        trace.append(("mid", engine.now))
        yield 5.0
        trace.append(("end", engine.now))

    spawn(engine, worker())
    engine.run()
    assert trace == [("start", 0.0), ("mid", 10.0), ("end", 15.0)]


def test_signal_wakes_waiting_process_with_value():
    engine = Engine()
    signal = Signal(engine, "data")
    received = []

    def consumer():
        value = yield signal
        received.append((value, engine.now))

    def producer():
        yield 20.0
        signal.fire("payload")

    spawn(engine, consumer())
    spawn(engine, producer())
    engine.run()
    assert received == [("payload", 20.0)]


def test_signal_fired_before_wait_returns_immediately():
    engine = Engine()
    signal = Signal(engine, "early")
    signal.fire(99)
    received = []

    def consumer():
        value = yield signal
        received.append(value)

    spawn(engine, consumer())
    engine.run()
    assert received == [99]


def test_signal_double_fire_raises():
    engine = Engine()
    signal = Signal(engine)
    signal.fire()
    with pytest.raises(SimulationError):
        signal.fire()


def test_joining_a_process_returns_its_result():
    engine = Engine()
    results = []

    def child():
        yield 30.0
        return "child-result"

    def parent():
        proc = spawn(engine, child())
        value = yield proc
        results.append((value, engine.now))

    spawn(engine, parent())
    engine.run()
    assert results == [("child-result", 30.0)]


def test_joining_finished_process_returns_immediately():
    engine = Engine()
    results = []

    def child():
        return "done"
        yield  # pragma: no cover

    def parent():
        proc = spawn(engine, child())
        yield 50.0  # child finishes long before
        value = yield proc
        results.append(value)

    spawn(engine, parent())
    engine.run()
    assert results == ["done"]


def test_multiple_waiters_all_wake():
    engine = Engine()
    signal = Signal(engine)
    woken = []

    def waiter(tag):
        yield signal
        woken.append(tag)

    for tag in range(3):
        spawn(engine, waiter(tag))

    def firer():
        yield 1.0
        signal.fire()

    spawn(engine, firer())
    engine.run()
    assert sorted(woken) == [0, 1, 2]


def test_yielding_garbage_raises():
    engine = Engine()

    def bad():
        yield "not-a-yieldable"

    spawn(engine, bad())
    with pytest.raises(SimulationError):
        engine.run()


def test_negative_sleep_raises():
    engine = Engine()

    def worker():
        yield -1.0

    spawn(engine, worker())
    with pytest.raises(SimulationError):
        engine.run()
