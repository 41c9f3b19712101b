"""The original AGMS ("tug-of-war") sketch (Alon, Gibbons, Matias, Szegedy).

An AGMS sketch keeps ``k * m`` independent atomic counters; counter
``(j, x)`` maintains ``sum_d f(d) * xi_{j,x}(d)`` for its own four-wise
independent sign hash ``xi_{j,x}``.  Every update touches **every** counter
— this is the per-update cost Fast-AGMS was invented to avoid, and keeping
both implementations lets tests and ablation benches quantify exactly that
trade-off.

Estimates:

* ``F2`` / self-join: mean over the ``m`` counters of a row of the squared
  counter, median over the ``k`` rows;
* join size: mean over the row of products of corresponding counters,
  median over rows (two sketches must share their sign hashes).
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..errors import IncompatibleSketchError, ParameterError
from ..hashing.sign import SignHash
from ..rng import RandomState, ensure_rng, spawn_many
from ..validation import as_value_array, require_positive_int

__all__ = ["AGMSSketch"]


class AGMSSketch:
    """Tug-of-war sketch with ``k`` rows of ``m`` atomic counters each."""

    def __init__(self, sign_hashes: List[List[SignHash]]) -> None:
        if not sign_hashes or not sign_hashes[0]:
            raise ParameterError("sign_hashes must be a non-empty (k, m) grid")
        width = len(sign_hashes[0])
        if any(len(row) != width for row in sign_hashes):
            raise ParameterError("sign_hashes rows must have equal length")
        self.sign_hashes = sign_hashes
        self.k = len(sign_hashes)
        self.m = width
        self.counts = np.zeros((self.k, self.m), dtype=np.float64)
        self.total_weight = 0.0

    @classmethod
    def create(cls, k: int, m: int, seed: RandomState = None) -> "AGMSSketch":
        """Draw a fresh ``(k, m)`` grid of independent sign hashes."""
        k = require_positive_int("k", k)
        m = require_positive_int("m", m)
        rng = ensure_rng(seed)
        children = spawn_many(rng, k * m)
        grid = [[SignHash(seed=children[j * m + x]) for x in range(m)] for j in range(k)]
        return cls(grid)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_batch(self, values: Iterable[int], weight: float = 1.0) -> None:
        """Fold ``values`` into all ``k * m`` counters.

        One sign evaluation per distinct value ``d``, weighted by its count.
        """
        arr = as_value_array(values)
        if arr.size == 0:
            return
        distinct, multiplicity = np.unique(arr, return_counts=True)
        for j in range(self.k):
            for x in range(self.m):
                signed = np.dot(self.sign_hashes[j][x](distinct), multiplicity)
                self.counts[j, x] += weight * float(signed)
        self.total_weight += weight * arr.size

    def update(self, value: int, weight: float = 1.0) -> None:
        """Fold a single value into the sketch."""
        self.update_batch(np.asarray([value], dtype=np.int64), weight)

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "AGMSSketch") -> None:
        if not isinstance(other, AGMSSketch):
            raise IncompatibleSketchError(f"cannot combine AGMSSketch with {type(other).__name__}")
        if self.k != other.k or self.m != other.m:
            raise IncompatibleSketchError(
                f"shape mismatch: ({self.k}, {self.m}) vs ({other.k}, {other.m})"
            )
        if self.sign_hashes is not other.sign_hashes and self.sign_hashes != other.sign_hashes:
            raise IncompatibleSketchError("AGMS sketches must share their sign hashes")

    def inner_product(self, other: "AGMSSketch") -> float:
        """Join-size estimate: row means of counter products, median of rows."""
        self._check_compatible(other)
        per_row = np.mean(self.counts * other.counts, axis=1)
        return float(np.median(per_row))

    def second_moment(self) -> float:
        """``F2`` estimate: row means of squared counters, median of rows."""
        per_row = np.mean(self.counts**2, axis=1)
        return float(np.median(per_row))

    def memory_bytes(self) -> int:
        """Size of the counter array in bytes."""
        return int(self.counts.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AGMSSketch(k={self.k}, m={self.m}, total_weight={self.total_weight:g})"
