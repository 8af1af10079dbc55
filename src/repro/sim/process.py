"""Generator-based processes on top of the event kernel.

A *process* is a Python generator that yields:

* a ``float`` — sleep that many nanoseconds;
* a :class:`Signal` — block until the signal is fired (the value passed
  to :meth:`Signal.fire` becomes the result of the ``yield``);
* another :class:`Process` — block until that process finishes (its
  return value becomes the result of the ``yield``).

This mirrors the structure of simpy but is implemented from scratch so
the library has no external simulation dependency.

Processes are resumed by :meth:`Engine.run <repro.sim.engine.Engine.run>`
itself, which also handles the float-sleep yield inline; every other
yield goes through :meth:`Process._wait_on`, and every wake-up (a
process start, a fired signal, a finished join target) is queued with
:meth:`Engine.resume <repro.sim.engine.Engine.resume>`.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Union

from repro.errors import SimulationError
from repro.sim.engine import Engine

Yieldable = Union[float, int, "Signal", "Process"]
ProcessGenerator = Generator[Yieldable, Any, Any]


class Signal:
    """A one-shot synchronization point.

    Processes wait on a signal by yielding it; :meth:`fire` wakes all
    waiters at the current simulation time and records the payload.
    Firing twice is a protocol error, waiting on an already-fired
    signal returns immediately.
    """

    __slots__ = ("engine", "name", "fired", "value", "_waiters")

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: List["Process"] = []

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking every waiting process."""
        if self.fired:
            raise SimulationError(f"signal fired twice: {self!r}")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.engine.resume(process, value)

    def _add_waiter(self, process: "Process") -> None:
        if self.fired:
            self.engine.resume(process, self.value)
        else:
            self._waiters.append(process)

    def __repr__(self) -> str:
        state = "fired" if self.fired else f"{len(self._waiters)} waiting"
        return f"<Signal {self.name or id(self)} {state}>"


class Process:
    """A running generator coroutine scheduled on an :class:`Engine`,
    listed as live there from start to finish."""

    __slots__ = ("engine", "generator", "name", "finished", "result", "_done_signal")

    def __init__(self, engine: Engine, generator: ProcessGenerator, name: str = ""):
        self.engine = engine
        self.generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        self._done_signal: Optional[Signal] = None
        engine._live[self] = None
        engine.resume(self)

    # -- lifecycle ------------------------------------------------------------

    def _wait_on(self, target: Yieldable) -> None:
        """Block on a yield :meth:`Engine.run` does not handle inline
        (everything but a plain ``float`` sleep)."""
        if isinstance(target, (int, float)):
            self.engine.resume(self, None, float(target))
        elif isinstance(target, Signal):
            target._add_waiter(self)
        elif isinstance(target, Process):
            target._add_join_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {target!r}"
            )

    def _finish(self, result: Any) -> None:
        del self.engine._live[self]
        self.finished = True
        self.result = result
        if self._done_signal is not None:
            self._done_signal.fire(result)

    def _add_join_waiter(self, process: "Process") -> None:
        if self.finished:
            self.engine.resume(process, self.result)
            return
        if self._done_signal is None:
            self._done_signal = Signal(self.engine, f"join:{self.name}")
        self._done_signal._add_waiter(process)

    def release(self) -> None:
        """Close the suspended generator (:meth:`Engine.close`), which
        frees the objects its frame holds."""
        self.generator.close()

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"<Process {self.name or id(self)} {state}>"


def spawn(engine: Engine, generator: ProcessGenerator, name: str = "") -> Process:
    """Start ``generator`` as a simulation process."""
    return Process(engine, generator, name)


class _SignalObserver:
    """Adapter letting a plain callback wait on a Signal."""

    __slots__ = ("engine", "callback")

    def __init__(self, engine: Engine, callback) -> None:
        self.engine = engine
        self.callback = callback
        engine._live[self] = None

    def _resume(self, value: Any) -> None:
        del self.engine._live[self]
        self.callback(value)

    def release(self) -> None:
        """Drop the callback (:meth:`Engine.close`): the signal may
        still list this observer, and the callback may hold an object
        that holds the signal."""
        self.callback = None


def observe(signal: Signal, callback) -> None:
    """Invoke ``callback(value)`` when ``signal`` fires — a lightweight
    alternative to spawning a whole process just to watch a signal."""
    signal._add_waiter(
        _SignalObserver(signal.engine, callback))  # type: ignore[arg-type]
