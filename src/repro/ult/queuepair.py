"""Queue-pair notification between the backside controller and cores.

Sec. IV-D2: "it is possible to program the backside controller and
create a notification mechanism using queue pairs that can notify the
core upon page arrivals from flash, similar to modern storage response
arrivals.  The scheduler can then read the queue pairs and schedule the
corresponding thread."

`CompletionQueue` is the per-core receive side: the BC posts one entry
per page arrival (with a doorbell callback that can wake an idle core),
and the user-level scheduler drains the queue at its next scheduling
point to mark the matching threads ready.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.errors import CapacityError, ConfigurationError


class CompletionEntry:
    """One page-arrival notification."""

    __slots__ = ("page", "posted_at", "context")

    def __init__(self, page: int, posted_at: float, context=None) -> None:
        self.page = page
        self.posted_at = posted_at
        self.context = context  # opaque (the parked thread)

    def __repr__(self) -> str:
        return f"<CompletionEntry page={self.page} t={self.posted_at:.0f}>"


class CompletionQueue:
    """Bounded per-core completion queue with a doorbell."""

    def __init__(self, core_id: int, capacity: int = 256,
                 doorbell: Optional[Callable[[], None]] = None) -> None:
        if capacity < 1:
            raise ConfigurationError("completion queue needs capacity >= 1")
        self.core_id = core_id
        self.capacity = capacity
        self._entries: Deque[CompletionEntry] = deque()
        self._doorbell = doorbell

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def set_doorbell(self, doorbell: Callable[[], None]) -> None:
        self._doorbell = doorbell

    def post(self, page: int, now: float, context=None) -> CompletionEntry:
        """BC-side: publish a page arrival and ring the doorbell.

        A full queue is a protocol violation — the BC sizes it for the
        maximum number of outstanding misses a core can have.
        """
        if self.is_full:
            raise CapacityError(
                f"completion queue of core {self.core_id} overflowed"
            )
        entry = CompletionEntry(page, now, context)
        self._entries.append(entry)
        if self._doorbell is not None:
            self._doorbell()
        return entry

    def drain(self) -> List[CompletionEntry]:
        """Scheduler-side: consume all pending notifications."""
        entries = list(self._entries)
        self._entries.clear()
        return entries

    def peek(self) -> Optional[CompletionEntry]:
        return self._entries[0] if self._entries else None
