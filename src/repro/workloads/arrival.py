"""Request arrival processes (open-loop load generation).

Every process speaks the :class:`ArrivalProcess` protocol: repeated
``next_gap_ns()`` calls yield successive inter-arrival gaps and
``rate_per_second`` reports the long-run mean arrival rate.

**Per-core convention.** The runner spawns one arrival stream per core,
all drawing gaps from a single shared process object, so a process's
mean inter-arrival time is *per core*: a machine with N cores sees an
aggregate arrival rate of ``N * rate_per_second``.  Aggregate-facing
layers (the CLI's ``--interarrival-us``, :mod:`repro.loadgen`'s offered
QPS) convert at their boundary; see ``streams`` below for how the
modulated processes keep their time base honest under N consumers.

* :class:`PoissonArrivals` — open-loop memoryless arrivals for
  tail-latency studies (Fig. 10 sweeps the mean inter-arrival time);
* :class:`MMPPArrivals` — two-state Markov-modulated Poisson: a bursty
  source alternating between a base and a burst rate with exponential
  state dwell times;
* :class:`DiurnalArrivals` — sinusoidally rate-modulated Poisson
  (thinning), a scaled-down model of day/night traffic swings;
* :class:`ClosedLoop` — a saturating job source for maximum-throughput
  measurements (Fig. 9 models "a large job queue").  Its nominal rate
  is infinite; JSON emitters must route non-finite values through
  :mod:`repro.jsonutil` (which maps them to ``null``).
"""

from __future__ import annotations

import math
import random
from typing import Optional, Protocol, Tuple

from repro.errors import ConfigurationError

TWO_PI = 2.0 * math.pi


def _check_positive(what: str, value: float) -> None:
    """``value`` must be finite and positive (so NaN fails too)."""
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{what} must be finite and positive, "
                                 f"got {value!r}")


class ArrivalProcess(Protocol):
    """What the runner needs from an arrival source."""

    def next_gap_ns(self) -> float:
        """Per-stream time until the next request."""
        ...

    @property
    def rate_per_second(self) -> float:
        """Long-run mean per-stream arrival rate."""
        ...


class PoissonArrivals:
    """Exponential inter-arrival times with a given per-core mean."""

    def __init__(self, mean_interarrival_ns: float, seed: int = 42) -> None:
        _check_positive("mean inter-arrival", mean_interarrival_ns)
        self.mean_interarrival_ns = mean_interarrival_ns
        self._rng = random.Random(seed)

    def next_gap_ns(self) -> float:
        """Time until the next request arrives."""
        return self._rng.expovariate(1.0 / self.mean_interarrival_ns)

    @property
    def rate_per_second(self) -> float:
        return 1e9 / self.mean_interarrival_ns


class ClosedLoop:
    """Always-backlogged source: a new job is available immediately."""

    def next_gap_ns(self) -> float:
        return 0.0

    @property
    def rate_per_second(self) -> float:
        return float("inf")


class MMPPArrivals:
    """Two-state Markov-modulated Poisson process (bursty arrivals).

    The source alternates between state 0 (mean inter-arrival
    ``mean_interarrival_ns``) and state 1 (``burst_interarrival_ns``,
    typically much shorter), with exponentially distributed dwell times
    in each state.  Within a state arrivals are Poisson, so the draw is
    exact: an exponential gap is truncated at the state boundary and
    redrawn in the new state (memorylessness makes the truncation
    free of bias).

    ``streams`` is the number of per-core consumers sharing this
    object: gap draws are per-stream, but state dwell must elapse in
    *simulated machine* time, which advances ~1/streams as fast as the
    interleaved per-stream gaps it hands out.
    """

    def __init__(self, mean_interarrival_ns: float,
                 burst_interarrival_ns: float,
                 mean_dwell_ns: float = 200_000.0,
                 burst_dwell_ns: float = 50_000.0,
                 seed: int = 42, streams: int = 1) -> None:
        for name, value in (("mean inter-arrival", mean_interarrival_ns),
                            ("burst inter-arrival", burst_interarrival_ns),
                            ("mean dwell", mean_dwell_ns),
                            ("burst dwell", burst_dwell_ns)):
            _check_positive(f"MMPP {name}", value)
        if streams < 1:
            raise ConfigurationError("MMPP needs at least one stream")
        self._means = (mean_interarrival_ns, burst_interarrival_ns)
        self._dwells = (mean_dwell_ns, burst_dwell_ns)
        self._streams = streams
        self._rng = random.Random(seed)
        self.state = 0
        self.transitions = 0
        self._dwell_remaining = self._rng.expovariate(1.0 / mean_dwell_ns)

    def next_gap_ns(self) -> float:
        rng = self._rng
        machine_fraction = 1.0 / self._streams
        gap = 0.0
        while True:
            draw = rng.expovariate(1.0 / self._means[self.state])
            if draw * machine_fraction <= self._dwell_remaining:
                self._dwell_remaining -= draw * machine_fraction
                return gap + draw
            # The state expires mid-gap: spend the remaining dwell
            # (converted back to per-stream time) and redraw in the
            # new state.
            gap += self._dwell_remaining * self._streams
            self._switch_state()

    def _switch_state(self) -> None:
        self.state ^= 1
        self.transitions += 1
        self._dwell_remaining = self._rng.expovariate(
            1.0 / self._dwells[self.state]
        )

    @property
    def rate_per_second(self) -> float:
        """Stationary mean rate: dwell-weighted state rates."""
        total_dwell = self._dwells[0] + self._dwells[1]
        rate_per_ns = (self._dwells[0] / total_dwell / self._means[0]
                       + self._dwells[1] / total_dwell / self._means[1])
        return rate_per_ns * 1e9


class DiurnalArrivals:
    """Sinusoidally rate-modulated Poisson arrivals (thinning).

    The instantaneous rate is ``base * (1 + amplitude * sin(2 pi t /
    period + phase))`` where ``t`` is simulated machine time and
    ``base = 1 / mean_interarrival_ns``; candidates are generated at
    the peak rate and accepted with probability ``rate(t) / peak``
    (Lewis-Shedler thinning), so the seeded draw sequence is
    deterministic.  ``streams`` plays the same role as for
    :class:`MMPPArrivals`: the internal clock advances ``gap /
    streams`` per handed-out gap so the modulation period is honored
    in machine time when N cores share the object.
    """

    def __init__(self, mean_interarrival_ns: float, period_ns: float,
                 amplitude: float = 0.5, seed: int = 42,
                 phase: float = 0.0, streams: int = 1) -> None:
        _check_positive("mean inter-arrival", mean_interarrival_ns)
        _check_positive("diurnal period", period_ns)
        if not 0.0 <= amplitude < 1.0:
            raise ConfigurationError("diurnal amplitude must be in [0, 1)")
        if streams < 1:
            raise ConfigurationError("diurnal needs at least one stream")
        self.mean_interarrival_ns = mean_interarrival_ns
        self.period_ns = period_ns
        self.amplitude = amplitude
        self.phase = phase
        self._streams = streams
        self._base_rate = 1.0 / mean_interarrival_ns
        self._peak_rate = self._base_rate * (1.0 + amplitude)
        self._rng = random.Random(seed)
        self._now_ns = 0.0  # machine-time clock

    def rate_at(self, t_ns: float) -> float:
        """Instantaneous per-stream rate (arrivals per ns) at time t."""
        return self._base_rate * (
            1.0 + self.amplitude * math.sin(
                TWO_PI * t_ns / self.period_ns + self.phase
            )
        )

    def next_gap_ns(self) -> float:
        rng = self._rng
        gap = 0.0
        while True:
            gap += rng.expovariate(self._peak_rate)
            t = self._now_ns + gap / self._streams
            if rng.random() * self._peak_rate <= self.rate_at(t):
                self._now_ns = t
                return gap

    @property
    def rate_per_second(self) -> float:
        """Mean rate over a full period (the sine averages out)."""
        return self._base_rate * 1e9


def arrival_from_spec(spec: Optional[Tuple]):
    """Build an arrival process from its picklable tuple spec.

    Specs are what :class:`repro.harness.parallel.RunSpec` carries (see
    the ``poisson``/``mmpp``/``diurnal`` helpers there);
    ``None`` means closed loop (the runner's default).
    """
    if spec is None:
        return None
    kind = spec[0]
    if kind == "poisson":
        _, mean_ns, seed = spec
        return PoissonArrivals(mean_ns, seed=seed)
    if kind == "mmpp":
        _, mean_ns, burst_ns, dwell_ns, burst_dwell_ns, seed, streams = spec
        return MMPPArrivals(mean_ns, burst_ns, mean_dwell_ns=dwell_ns,
                            burst_dwell_ns=burst_dwell_ns, seed=seed,
                            streams=streams)
    if kind == "diurnal":
        _, mean_ns, period_ns, amplitude, seed, streams = spec
        return DiurnalArrivals(mean_ns, period_ns, amplitude=amplitude,
                               seed=seed, streams=streams)
    raise ConfigurationError(f"unknown arrival spec {spec!r}")
