"""The Count-Min sketch (Cormode & Muthukrishnan).

Maintains ``M[j, h_j(d)] += w`` per row and answers point queries with
``min_j M[j, h_j(d)]`` — a one-sided (over-estimating) frequency summary.
It is not used by the paper's estimators directly, but it is the natural
non-signed sibling of Count-Sketch/Fast-AGMS, it underlies Apple's CMS
(:mod:`repro.sketches.count_mean` adds the mean debiasing), and it gives
the test-suite an independent reference for heavy-hitter extraction.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .base import LinearSketch, scan_domain

__all__ = ["CountMinSketch"]


class CountMinSketch(LinearSketch):
    """Count-Min sketch over integer ids (signs unused)."""

    signed = False

    def frequencies(self, values: Iterable[int]) -> np.ndarray:
        """Point estimates ``min_j M[j, h_j(d)]`` (never under-estimate)."""
        return self._read(values, np.min)

    def heavy_hitters(self, domain_size: int, threshold: float) -> np.ndarray:
        """Values of ``[0, domain_size)`` whose estimate exceeds ``threshold`` (chunked scan)."""
        return scan_domain(self.pairs, [self.counts], [threshold], domain_size, read_out="min")
