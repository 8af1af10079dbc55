"""Analytic queueing models behind Fig. 3 (and the Fig. 2 argument).

The paper compares four designs with a single physical server per core:

* **DRAM-only** — M/M/1 with service time S (no flash stalls);
* **Flash-Sync** — M/M/1 whose service time includes every flash stall
  synchronously (throughput collapses to S/(S+stalls));
* **AstriFlash / OS-Swap** — M/M/k: k outstanding requests overlap the
  flash stalls, so one physical server behaves like k logical servers.
  The core is only busy for the work plus the per-stall core-side
  overhead (100 ns switch for AstriFlash, ~10 us fault+switch for
  OS-Swap), which caps throughput; the stall itself only adds latency.

Closed forms: Erlang-C waiting probability and the exact survival
function of W + S for M/M/k, inverted by bisection for percentiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError


def erlang_c(servers: int, offered_load: float) -> float:
    """Probability an arrival waits in an M/M/k queue.

    ``offered_load`` is a = lambda/mu (in Erlangs); requires a < k.
    """
    if servers < 1:
        raise ConfigurationError("need at least one server")
    if offered_load < 0:
        raise ConfigurationError("offered load cannot be negative")
    if offered_load >= servers:
        raise ConfigurationError("queue unstable: load >= servers")
    if offered_load == 0:
        return 0.0
    # Sum a^n/n! for n < k, computed iteratively for stability.
    term = 1.0
    total = 1.0
    for n in range(1, servers):
        term *= offered_load / n
        total += term
    top = term * offered_load / servers  # a^k/k!
    top *= servers / (servers - offered_load)
    return top / (total + top)


def mmk_response_survival(t: float, arrival_rate: float, service_rate: float,
                          servers: int) -> float:
    """P(response time > t) for M/M/k (response = wait + service)."""
    if t < 0:
        return 1.0
    mu = service_rate
    a = arrival_rate / mu
    c = erlang_c(servers, a)
    theta = servers * mu - arrival_rate  # wait-tail decay rate
    if abs(theta - mu) < 1e-12 * mu:
        # Degenerate case: W and S decay at the same rate.
        return math.exp(-mu * t) * (1.0 - c + c * (1.0 + mu * t))
    wait_part = c * (theta * (math.exp(-theta * t) - math.exp(-mu * t))
                     / (mu - theta) + math.exp(-theta * t))
    return (1.0 - c) * math.exp(-mu * t) + wait_part


def mmk_response_percentile(fraction: float, arrival_rate: float,
                            service_rate: float, servers: int) -> float:
    """Response-time percentile for M/M/k by bisection."""
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError("percentile fraction in (0,1) required")
    target = 1.0 - fraction
    low, high = 0.0, 1.0 / service_rate
    while mmk_response_survival(high, arrival_rate, service_rate,
                                servers) > target:
        high *= 2.0
        if high > 1e15:
            raise ConfigurationError("percentile did not converge")
    for _ in range(200):
        mid = 0.5 * (low + high)
        if mmk_response_survival(mid, arrival_rate, service_rate,
                                 servers) > target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def mm1_response_percentile(fraction: float, arrival_rate: float,
                            service_rate: float) -> float:
    """Exact M/M/1 response-time percentile: Exp(mu - lambda)."""
    if arrival_rate >= service_rate:
        raise ConfigurationError("queue unstable: lambda >= mu")
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError("percentile fraction in (0,1) required")
    return -math.log(1.0 - fraction) / (service_rate - arrival_rate)


@dataclass(frozen=True)
class OverlapModel:
    """One design point of Fig. 3.

    ``work_ns``               — pure compute per request (DRAM-only
                                 service time);
    ``stall_ns``              — total flash stall per request;
    ``core_overhead_ns``      — core-side cost per request of hiding the
                                 stalls (switches, faults); 0 for
                                 DRAM-only, everything for Flash-Sync is
                                 folded into the stall instead.
    ``synchronous``           — True = stalls block the server (M/M/1).
    """

    name: str
    work_ns: float
    stall_ns: float = 0.0
    core_overhead_ns: float = 0.0
    synchronous: bool = False

    @property
    def service_time_ns(self) -> float:
        """End-to-end service time of one request in isolation."""
        return self.work_ns + self.stall_ns + self.core_overhead_ns

    @property
    def core_busy_ns(self) -> float:
        """Time the physical server is occupied per request."""
        if self.synchronous:
            return self.service_time_ns
        return self.work_ns + self.core_overhead_ns

    @property
    def max_throughput_per_second(self) -> float:
        return 1e9 / self.core_busy_ns

    @property
    def servers(self) -> int:
        """Logical multi-server width: the number of requests required
        to overlap the flash accesses (Sec. III-A's M/M/k)."""
        if self.synchronous:
            return 1
        return max(1, math.ceil(self.service_time_ns / self.core_busy_ns))

    def percentile_ns(self, fraction: float,
                      arrival_rate_per_second: float) -> float:
        """Response-time percentile at the given arrival rate."""
        lam = arrival_rate_per_second / 1e9  # per ns
        mu = 1.0 / self.service_time_ns
        k = self.servers
        if k == 1:
            return mm1_response_percentile(fraction, lam, mu)
        return mmk_response_percentile(fraction, lam, mu, k)


def paper_figure3_models(work_ns: float = 10_000.0,
                         flash_ns: float = 50_000.0,
                         astriflash_overhead_ns: float = 200.0,
                         os_overhead_ns: float = 10_000.0) -> List[OverlapModel]:
    """The four Fig. 3 configurations with the paper's example numbers:
    10 us of work triggering one 50 us flash access."""
    return [
        OverlapModel("dram-only", work_ns),
        OverlapModel("astriflash", work_ns, stall_ns=flash_ns,
                     core_overhead_ns=astriflash_overhead_ns),
        OverlapModel("os-swap", work_ns, stall_ns=flash_ns,
                     core_overhead_ns=os_overhead_ns),
        OverlapModel("flash-sync", work_ns, stall_ns=flash_ns,
                     synchronous=True),
    ]
