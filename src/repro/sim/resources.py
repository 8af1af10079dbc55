"""Queueing resources for simulation processes.

Two primitives cover everything the models need:

* :class:`Server` — a k-server station with FIFO admission.  Used for
  flash channels, PCIe lanes and the backside controller's issue slots.
* :class:`Store` — a bounded FIFO buffer of items with blocking put/get.
  Used for job queues and controller request queues.

Both are process-aware: acquiring a busy resource yields a
:class:`~repro.sim.process.Signal` that fires when the resource becomes
available.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.process import Signal


class Server:
    """A station with ``capacity`` parallel servers.

    Usage from a process::

        grant = server.acquire()
        if grant is not None:
            yield grant          # wait until a slot frees up
        yield service_time_ns
        server.release()
    """

    def __init__(self, engine: Engine, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"server capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.busy = 0
        self._waiting: Deque[Signal] = deque()

    def acquire(self, high_priority: bool = False) -> Optional[Signal]:
        """Claim a server slot.

        Returns ``None`` if a slot was free (claimed immediately), or a
        :class:`Signal` the caller must yield on.  When the signal
        fires the slot is already claimed for the caller.
        ``high_priority`` waiters are granted before normal waiters
        (e.g. flash reads ahead of background program drains).
        """
        if self.busy < self.capacity:
            self.busy += 1
            return None
        signal = Signal(self.engine, f"{self.name}:grant")
        if high_priority:
            self._waiting.appendleft(signal)
        else:
            self._waiting.append(signal)
        return signal

    def release(self) -> None:
        """Free one server slot, handing it to the oldest waiter if any."""
        if self.busy <= 0:
            raise SimulationError(f"release() on idle server {self.name!r}")
        if self._waiting:
            # Hand the slot directly to the next waiter: busy stays constant.
            signal = self._waiting.popleft()
            signal.fire()
        else:
            self.busy -= 1

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiting)

    def __repr__(self) -> str:
        return (
            f"<Server {self.name or id(self)} busy={self.busy}/{self.capacity}"
            f" waiting={len(self._waiting)}>"
        )


class Store:
    """A bounded FIFO buffer with blocking put/get.

    ``put`` blocks (returns a signal to yield on) when the store is
    full; ``get`` blocks when it is empty.  ``None`` capacity means
    unbounded.
    """

    def __init__(self, engine: Engine, capacity: Optional[int] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()
        self._putters: Deque[tuple] = deque()  # (signal, item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def try_put(self, item: Any) -> bool:
        """Non-blocking put.  Returns False if the store is full."""
        if self._getters:
            # Hand the item straight to the oldest getter.
            self._getters.popleft().fire(item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def put(self, item: Any) -> Optional[Signal]:
        """Blocking put.  Returns a signal to yield on when full."""
        if self.try_put(item):
            return None
        signal = Signal(self.engine, f"{self.name}:put")
        self._putters.append((signal, item))
        return signal

    def try_get(self) -> tuple:
        """Non-blocking get.  Returns ``(ok, item)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def get(self) -> "Signal | Any":
        """Blocking get.

        If an item is ready it is returned wrapped in :class:`Ready`;
        otherwise a signal is returned whose fire-value is the item::

            slot = store.get()
            if isinstance(slot, Ready):
                item = slot.item
            else:
                item = yield slot
        """
        ok, item = self.try_get()
        if ok:
            return Ready(item)
        signal = Signal(self.engine, f"{self.name}:get")
        self._getters.append(signal)
        return signal

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            signal, item = self._putters.popleft()
            self._items.append(item)
            signal.fire()

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"<Store {self.name or id(self)} {len(self._items)}/{cap}>"


class Ready:
    """Wrapper marking an immediately-available :meth:`Store.get` result."""

    __slots__ = ("item",)

    def __init__(self, item: Any) -> None:
        self.item = item

    def __repr__(self) -> str:
        return f"Ready({self.item!r})"
