"""Named float counts bumped inline on the simulator's hot paths."""

from __future__ import annotations


class CounterSet(dict):
    """Named, monotonically increasing float counts in first-fire order.

    A component bumps a count inline, ``stats["reads"] += 1.0``, which
    costs no Python frame.  Reading an absent key gives 0.0 without
    inserting it, so a key appears only once it is first bumped, at
    its first-fire position, and every value stays a float (``0.0 +
    amount``).  ``SimulationResult.counters``,
    ``Machine.state_fingerprint`` and warm snapshots carry these dicts
    unsorted, so that order, that absence and that type are part of
    the output.  Amounts are never negative.
    """

    __slots__ = ()

    def __missing__(self, key: str) -> float:
        return 0.0
