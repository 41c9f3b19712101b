"""The Count-Sketch (Charikar, Chen, Farach-Colton).

Structurally identical to Fast-AGMS — signed bucket counts with per-row
``(h_j, xi_j)`` pairs — but read out purely as a *frequency* summary:
``median_j M[j, h_j(d)] * xi_j(d)``, an unbiased two-sided point estimate.
Kept as a distinct class because the experiments use it as an independent
frequency-estimation reference and because its read-out (median of signed
counters) differs from Count-Min's (min of unsigned counters).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from .base import LinearSketch, scan_domain

__all__ = ["CountSketch"]


class CountSketch(LinearSketch):
    """Count-Sketch over integer ids."""

    def frequencies(self, values: Iterable[int]) -> np.ndarray:
        """Unbiased point estimates ``median_j M[j, h_j(d)] xi_j(d)``."""
        return self._read(values, np.median)

    def heavy_hitters(self, domain_size: int, threshold: float) -> Tuple[np.ndarray, np.ndarray]:
        """Values whose estimate exceeds ``threshold`` (chunked scan) and their estimates."""
        values = scan_domain(self.pairs, [self.counts], [threshold], domain_size)
        return values, self.frequencies(values)
