"""Footprint-cache extension (Jevdjic et al., cited as [36]).

Sec. II-A notes that flash refill bandwidth can be cut further with
"optimizations such as Footprint Cache": instead of fetching the whole
4 KiB page on a miss, fetch only the blocks the page's *footprint* —
the subset actually used while resident — predicts.

This module provides the predictor.  Pages are grouped into regions
(footprints correlate strongly within a data-structure region); each
region keeps an exponentially-weighted estimate of how many 64 B blocks
of a page get touched per residency.  The backside controller fetches
``predicted + safety`` blocks; on eviction it trains the predictor with
the page's observed access count and records whether the fetch was an
under- or over-estimate.

Model note (DESIGN.md): the simulator tracks per-page access *counts*
rather than per-block bitmaps, so the number of distinct blocks touched
is approximated by the access count capped at the blocks-per-page —
exact for the paper's sparse access patterns where temporal reuse of a
block within one residency is served by the on-chip caches anyway.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError
from repro.units import CACHE_BLOCK_SIZE, PAGE_SIZE

BLOCKS_PER_PAGE = PAGE_SIZE // CACHE_BLOCK_SIZE


class FootprintPredictor:
    """Per-region EWMA predictor of blocks used per page residency."""

    def __init__(self, region_pages: int = 64, safety_blocks: int = 4,
                 ewma_alpha: float = 0.25,
                 blocks_per_page: int = BLOCKS_PER_PAGE) -> None:
        if region_pages < 1:
            raise ConfigurationError("region must cover at least one page")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigurationError("EWMA alpha must be in (0,1]")
        if not 0 <= safety_blocks <= blocks_per_page:
            raise ConfigurationError("safety margin out of range")
        self.region_pages = region_pages
        self.safety_blocks = safety_blocks
        self.ewma_alpha = ewma_alpha
        self.blocks_per_page = blocks_per_page
        self._estimates: Dict[int, float] = {}
        # Evictions trained on, and those whose residency used more
        # blocks than the fetch brought (the footprint ablation's
        # underfetch rate).
        self.trainings = 0
        self.underfetches = 0

    def _region(self, page: int) -> int:
        return page // self.region_pages

    def predict_blocks(self, page: int) -> int:
        """Blocks to fetch for a refill of ``page``.

        Cold regions fetch the full page (no history to trust).
        """
        estimate = self._estimates.get(self._region(page))
        if estimate is None:
            return self.blocks_per_page
        predicted = min(self.blocks_per_page,
                        int(estimate + 0.5) + self.safety_blocks)
        return max(1, predicted)

    def predict_bytes(self, page: int) -> int:
        return self.predict_blocks(page) * CACHE_BLOCK_SIZE

    def record_eviction(self, page: int, accesses_while_resident: int,
                        fetched_blocks: int) -> None:
        """Train on the observed footprint of an evicted page."""
        used = min(self.blocks_per_page, max(0, accesses_while_resident))
        region = self._region(page)
        old = self._estimates.get(region)
        if old is None:
            self._estimates[region] = float(used)
        else:
            self._estimates[region] = (
                (1.0 - self.ewma_alpha) * old + self.ewma_alpha * used
            )
        self.trainings += 1
        if used > fetched_blocks:
            # The residency needed blocks the fetch did not bring: in
            # hardware these trigger secondary fills.
            self.underfetches += 1

    def underfetch_rate(self) -> float:
        """Share of trained evictions that were underfetched; 0 before
        the first training."""
        if not self.trainings:
            return 0.0
        return self.underfetches / self.trainings
