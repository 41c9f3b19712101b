"""The Fast-AGMS sketch (Cormode & Garofalakis, VLDB 2005).

A Fast-AGMS sketch ``M`` of shape ``(k, m)`` maintains, for every row
``j``, the signed bucket counts

.. math::  M[j, h_j(d)] \\mathrel{+}= \\xi_j(d)

for each stream value ``d``.  Compared to the original AGMS sketch, each
update touches one counter per row instead of every counter, hence "fast".

Estimates supported here (all used by the paper):

* **join size** (Eq. 1): ``median_j sum_x MA[j, x] * MB[j, x]`` for two
  sketches built with the *same* hash pairs;
* **frequency**: ``median_j M[j, h_j(d)] * xi_j(d)`` (the Count-Sketch
  estimator — Fast-AGMS and Count-Sketch share their structure);
* **second moment** ``F2``: the self-join estimate.

This class is the non-private **FAGMS** baseline of the experiments and
the structure that :mod:`repro.core` privatises.  An update hashes each
*distinct* value once and adds ``multiplicity * xi_j(d)``; for integer
weights the counters are bit-identical to per-occurrence updates.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .base import LinearSketch

__all__ = ["FastAGMSSketch"]


class FastAGMSSketch(LinearSketch):
    """Fast-AGMS sketch over integer ids; joined sketches share one ``HashPairs``."""

    def inner_product(self, other: "FastAGMSSketch") -> float:
        """Eq. (1): median over rows of the row-wise inner products."""
        self.check_compatible(other)
        per_row = np.einsum("jx,jx->j", self.counts, other.counts)
        return float(np.median(per_row))

    def second_moment(self) -> float:
        """Self-join size estimate (``F2``)."""
        per_row = np.einsum("jx,jx->j", self.counts, self.counts)
        return float(np.median(per_row))

    def frequencies(self, values: Iterable[int]) -> np.ndarray:
        """Count-Sketch point estimates ``median_j M[j, h_j(d)] xi_j(d)``."""
        return self._read(values, np.median)
