"""Deterministic per-read fault plan for the flash device.

The :class:`FaultPlan` is the single authority on *what goes wrong*:
given a plane and logical page it draws a :class:`ReadOutcome` (retry
rounds, uncorrectable, transient stall, slow-plane multiplier) from its
**own** seeded RNG streams — never the simulation RNG — so enabling or
reseeding faults cannot perturb workload or scheduler randomness, and
two runs with the same fault seed inject identical fault sequences.

Wear coupling reads the FTL's per-block erase counters at draw time:
pages sitting on heavily-erased blocks see a proportionally higher
effective RBER, which ties the error model to the GC/wear machinery
already in :mod:`repro.flash.ftl`.

The plan also tracks per-plane consecutive hard faults (timeouts and
uncorrectable reads).  Once a plane crosses
``plane_failure_threshold`` it is marked *failing* and the device
serves its reads through the degraded mirror path — the graceful-
degradation mode the backside controller's reissue loop relies on to
terminate.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.config.system import FaultConfig
from repro.faults.model import (
    ReadOutcome,
    effective_rber,
    page_failure_probability,
)

#: Shared clean outcome: most reads draw no fault, so the common case
#: allocates nothing (callers never mutate outcomes).
_CLEAN = ReadOutcome()


class FaultPlan:
    """Seeded fault decisions for one :class:`FlashDevice`."""

    def __init__(self, config: FaultConfig, num_planes: int,
                 ftl=None) -> None:
        self.config = config
        self.num_planes = num_planes
        self.ftl = ftl
        # Two independent streams: topology (drawn once, at build time)
        # and the per-read stream.  String seeding keeps both stable
        # across processes (no hash randomization).
        self._rng = random.Random(f"repro-faults-reads-{config.seed}")
        topology = random.Random(f"repro-faults-topology-{config.seed}")
        self.slow_planes = frozenset(
            plane for plane in range(num_planes)
            if topology.random() < config.slow_plane_fraction
        )
        self._consecutive_failures: List[int] = [0] * num_planes
        self._failing: List[bool] = [False] * num_planes
        # (erase_count, retry_round) -> page failure probability.
        self._p_fail_cache: Dict[Tuple[int, int], float] = {}

    # -- queries ---------------------------------------------------------------

    def plane_failing(self, plane_index: int) -> bool:
        """True once ``plane_index`` crossed the failure threshold."""
        return self._failing[plane_index]

    def failing_planes(self) -> List[int]:
        return [i for i, failing in enumerate(self._failing) if failing]

    def page_failure_probability(self, erase_count: int,
                                 retry_round: int) -> float:
        """Cached ECC page-failure probability for one sense round."""
        key = (erase_count, retry_round)
        cached = self._p_fail_cache.get(key)
        if cached is None:
            cfg = self.config
            rate = effective_rber(cfg.rber, erase_count,
                                  cfg.wear_rber_factor, retry_round,
                                  cfg.retry_rber_scale)
            cached = page_failure_probability(
                rate, cfg.codewords_per_page, cfg.codeword_bits,
                cfg.ecc_correctable_bits)
            self._p_fail_cache[key] = cached
        return cached

    # -- the draw --------------------------------------------------------------

    def read_outcome(self, plane_index: int,
                     logical_page: int) -> ReadOutcome:
        """Decide what this read experiences; updates failure tracking.

        Hard faults (transient stalls, uncorrectable pages) are
        recorded against the plane *at draw time* — the controller's
        error interrupt is what teaches the failure tracker — so a
        reissue storm against a dying plane converges onto the
        degraded mirror path within ``plane_failure_threshold``
        attempts instead of racing in-flight completions.
        """
        cfg = self.config
        rng = self._rng

        if cfg.timeout_probability > 0.0 \
                and rng.random() < cfg.timeout_probability:
            self._record_failure(plane_index)
            return ReadOutcome(
                sense_multiplier=self._sense_multiplier(plane_index),
                timeout_stall=True,
            )

        retry_rounds = 0
        uncorrectable = False
        if cfg.rber > 0.0:
            erase_count = self._erase_count(logical_page)
            if rng.random() < self.page_failure_probability(erase_count, 0):
                # First sense failed ECC: walk the retry table.
                uncorrectable = True
                for round_index in range(1, cfg.read_retry_max_rounds + 1):
                    retry_rounds = round_index
                    p_fail = self.page_failure_probability(
                        erase_count, round_index)
                    if rng.random() >= p_fail:
                        uncorrectable = False
                        break

        multiplier = self._sense_multiplier(plane_index)
        if uncorrectable:
            self._record_failure(plane_index)
        else:
            self._record_success(plane_index)
        if not retry_rounds and not uncorrectable and multiplier == 1.0:
            return _CLEAN
        return ReadOutcome(
            sense_multiplier=multiplier,
            retry_rounds=retry_rounds,
            uncorrectable=uncorrectable,
        )

    # -- internals -------------------------------------------------------------

    def _sense_multiplier(self, plane_index: int) -> float:
        if plane_index in self.slow_planes:
            return self.config.slow_plane_multiplier
        return 1.0

    def _erase_count(self, logical_page: int) -> int:
        if self.ftl is None or self.config.wear_rber_factor == 0.0:
            return 0
        return self.ftl.erase_count_of(logical_page)

    def mark_plane_failing(self, plane_index: int) -> None:
        """Declare a plane failing (degraded mirror reads from now on).

        Called by the backside controller when one request's reissue
        chain crosses the failure threshold — the consecutive-failure
        counter alone can be reset by interleaved successful reads on
        the same plane, but a single page failing attempt after attempt
        is exactly the evidence a real controller acts on.
        """
        if self.config.plane_failure_threshold <= 0:
            return
        self._failing[plane_index] = True

    def _record_failure(self, plane_index: int) -> None:
        threshold = self.config.plane_failure_threshold
        if threshold <= 0:
            return
        count = self._consecutive_failures[plane_index] + 1
        self._consecutive_failures[plane_index] = count
        if count >= threshold:
            self.mark_plane_failing(plane_index)

    def _record_success(self, plane_index: int) -> None:
        if self._consecutive_failures[plane_index]:
            self._consecutive_failures[plane_index] = 0

    def __repr__(self) -> str:
        return (f"<FaultPlan seed={self.config.seed} "
                f"rber={self.config.rber:g} "
                f"slow_planes={len(self.slow_planes)} "
                f"failing={len(self.failing_planes())}>")
