"""The Count-Mean Sketch (the server structure of Apple's CMS / HCMS).

Apple's "Learning with Privacy at Scale" aggregates randomized one-hot
client reports into a ``(k, m)`` count array and answers point queries with
the *debiased mean* over rows

.. math::

    \\hat f(d) = \\frac{m}{m - 1}\\Big(\\tfrac1k \\sum_j M[j, h_j(d)]
                 - \\tfrac{n}{m}\\Big),

which corrects the expected ``n/m`` collision mass per bucket.  This module
implements the **non-private** structure (plain updates); the LDP client
channel on top of it lives in :mod:`repro.mechanisms.hcms`, which reuses the
read-out implemented here.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ParameterError
from ..hashing import HashPairs
from ..validation import as_value_array
from .base import LinearSketch, read_cells

__all__ = ["CountMeanSketch", "count_mean_frequencies"]


def count_mean_frequencies(
    counts: np.ndarray,
    pairs: HashPairs,
    total: float,
    values: np.ndarray,
) -> np.ndarray:
    """Debiased Count-Mean point estimates for ``values``.

    Shared by the non-private :class:`CountMeanSketch` and the LDP
    Apple-HCMS server: both hold a ``(k, m)`` count array whose rows have
    expected bucket load ``total / m`` under no signal.
    """
    m = pairs.m
    if m < 2:
        raise ParameterError("count-mean read-out requires m >= 2")
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    mean_counts = np.mean(read_cells(counts, pairs.bucket_all(arr), None), axis=0)
    return (m / (m - 1.0)) * (mean_counts - total / m)


class CountMeanSketch(LinearSketch):
    """Non-private Count-Mean Sketch over integer ids (unsigned updates)."""

    signed = False

    def frequencies(self, values: Iterable[int]) -> np.ndarray:
        """Debiased mean point estimates (can be negative)."""
        arr = as_value_array(values)
        return count_mean_frequencies(self.counts, self.pairs, self.total_weight, arr)
