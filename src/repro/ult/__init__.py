"""User-level threading: contexts, schedulers, per-core library."""

from repro.ult.library import ThreadLibrary
from repro.ult.queuepair import CompletionEntry, CompletionQueue
from repro.ult.scheduler import (
    FifoScheduler,
    PriorityAgingScheduler,
    UltScheduler,
    make_scheduler,
)
from repro.ult.thread import ThreadState, UserThread

__all__ = [
    "CompletionEntry",
    "CompletionQueue",
    "FifoScheduler",
    "PriorityAgingScheduler",
    "ThreadLibrary",
    "ThreadState",
    "UltScheduler",
    "UserThread",
    "make_scheduler",
]
