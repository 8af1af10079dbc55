"""NAND read-error math: RBER -> codeword -> page failure probability.

A 4 KiB flash page is protected as ``codewords_per_page`` independent
ECC codewords of ``codeword_bits`` raw bits, each correcting up to
``ecc_correctable_bits`` errors.  With raw bit errors i.i.d. at rate
``rber``, the error count per codeword is Binomial(n, p) with n in the
thousands and p small, so the Poisson approximation with
``lambda = n * p`` is accurate and cheap — the classic waterfall shape:
essentially zero failures until ``lambda`` approaches the correction
strength ``t``, then a sharp rise to 1.

Read-retry reduces the effective RBER (shifted-Vref re-reads recover
cells near the threshold), modelled as a geometric per-round scale, so
retries turn most first-sense failures into corrected reads — at the
cost of extra sense latency the device model charges.
"""

from __future__ import annotations

import math


class ReadOutcome:
    """What the fault plan decided for one flash page read."""

    __slots__ = ("sense_multiplier", "retry_rounds", "uncorrectable",
                 "timeout_stall")

    def __init__(self, sense_multiplier: float = 1.0, retry_rounds: int = 0,
                 uncorrectable: bool = False,
                 timeout_stall: bool = False) -> None:
        self.sense_multiplier = sense_multiplier
        self.retry_rounds = retry_rounds
        self.uncorrectable = uncorrectable
        self.timeout_stall = timeout_stall

    def __repr__(self) -> str:
        return (f"<ReadOutcome retries={self.retry_rounds} "
                f"uncorrectable={self.uncorrectable} "
                f"timeout={self.timeout_stall} "
                f"sense_x={self.sense_multiplier:g}>")


def poisson_tail(threshold: int, lam: float) -> float:
    """``P(X > threshold)`` for ``X ~ Poisson(lam)``.

    Exact partial-sum evaluation; for ``lam`` large enough that
    ``exp(-lam)`` underflows (lam > ~700) the mass is far above any
    realistic ECC threshold, so the tail is 1 for threshold < lam.
    """
    if lam <= 0.0:
        return 0.0
    if lam > 700.0:
        # exp(-lam) underflows; the distribution is concentrated at
        # lam +- a few sqrt(lam), far from thresholds this model uses.
        return 1.0 if threshold < lam else 0.0
    term = math.exp(-lam)
    cdf = term
    for k in range(1, threshold + 1):
        term *= lam / k
        cdf += term
    return max(0.0, 1.0 - cdf)


def codeword_failure_probability(rber: float, codeword_bits: int,
                                 correctable_bits: int) -> float:
    """Probability one codeword has more raw errors than ECC corrects."""
    if rber <= 0.0:
        return 0.0
    return poisson_tail(correctable_bits, rber * codeword_bits)


def page_failure_probability(rber: float, codewords_per_page: int,
                             codeword_bits: int,
                             correctable_bits: int) -> float:
    """Probability at least one of the page's codewords fails ECC."""
    p_cw = codeword_failure_probability(rber, codeword_bits,
                                        correctable_bits)
    if p_cw <= 0.0:
        return 0.0
    if p_cw >= 1.0:
        return 1.0
    return 1.0 - (1.0 - p_cw) ** codewords_per_page


def effective_rber(rber: float, erase_count: int,
                   wear_rber_factor: float,
                   retry_round: int = 0,
                   retry_rber_scale: float = 1.0) -> float:
    """RBER after wear coupling and ``retry_round`` shifted-Vref senses."""
    rate = rber * (1.0 + wear_rber_factor * erase_count)
    if retry_round > 0:
        rate *= retry_rber_scale ** retry_round
    return rate
