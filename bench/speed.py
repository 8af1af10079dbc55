"""Host-speed probe: a fixed piece of pure-Python work, timed.

A shared 2-vCPU host runs the same simulation up to 1.5x slower for
minutes at a time, while the work done stays the same.  The benchmark
times this probe right before and right after every cell and scales
the cell's host time by ``REFERENCE_S / probe time``: seconds at the
speed the host had when the probe took ``REFERENCE_S``.  That cuts the
run-to-run spread of sweep times about fourfold on such a host.

The probe is standard library only and shares no code with the
simulator, so a change to the simulator cannot move it.  It mixes the
two kinds of work the simulator's hot loops do: a heap-and-dict loop
and a generator-driven event loop.
"""

from __future__ import annotations

import heapq
import time

#: Probe time (fastest of three) on a quiet 2-vCPU x86-64 host with
#: CPython 3.11; scaled times read as seconds on that host.
REFERENCE_S = 0.00215

_REPEATS = 3


def _heap_and_dict(n: int) -> int:
    heap = []
    table = {}
    total = 0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        if len(heap) > 64:
            when, key = heapq.heappop(heap)
            table[key & 255] = table.get(key & 255, 0) + when
            total += when
    return total


def _process(step: float, out: list):
    value = 0.5
    while True:
        value = value * 1.0000001 + step
        out.append(value)
        if len(out) > 32:
            out.clear()
        yield value


def _event_loop(n: int) -> float:
    processes = [_process(k * 0.25, []) for k in range(8)]
    heap = [(0.0, k) for k in range(8)]
    now = 0.0
    for _ in range(n):
        now, k = heapq.heappop(heap)
        heapq.heappush(heap, (now + next(processes[k]) % 1.0 + 0.001, k))
    return now


def probe() -> float:
    """Seconds the probe work takes now: the fastest of three tries."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _heap_and_dict(2500)
        _event_loop(1500)
        best = min(best, time.perf_counter() - start)
    return best


def factor(before: float, after: float) -> float:
    """Scale for a host time measured between two probes."""
    return REFERENCE_S / ((before + after) / 2.0)
