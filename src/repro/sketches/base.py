"""Common behaviour of the array-shaped linear sketches.

All the classical sketches in this package share a ``(k, m)`` counter array
and the *linearity* property: the sketch of the concatenation of two
streams is the element-wise sum of the two sketches.  :class:`LinearSketch`
hosts that shared plumbing — counter storage, the batched update, merging,
and compatibility checks — while subclasses say whether updates are signed
and how estimates are read out.  :func:`scan_domain` is the read side for
whole candidate domains.
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..accumulate import scatter_add
from ..errors import IncompatibleSketchError, ParameterError
from ..hashing import HashPairs
from ..rng import RandomState
from ..validation import as_value_array

__all__ = ["LinearSketch", "hash_cells", "read_cells", "scan_domain", "HASH_CHUNK"]

#: Values hashed per all-rows pass: the ``k x chunk`` intermediates stay
#: cache-resident, about twice as fast as one pass over a large batch.
HASH_CHUNK = 4096

#: Read-out -> (reduction over the ``k`` rows, cells signed?, rows that must
#: exceed a cutoff for the reduction to: a median of ``k`` values exceeds
#: ``c`` only if ``ceil(k/2)`` of them do, a min only if all do).
_READ_OUTS = {
    "median": (np.median, True, lambda k: (k + 1) // 2),
    "mean": (np.mean, True, lambda k: 0),
    "min": (np.min, False, lambda k: k),
}


def hash_cells(
    pairs: HashPairs, values: np.ndarray, *, signed: bool = True
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Buckets ``h_j(values)`` and, when ``signed``, signs ``xi_j(values)``; each ``(k, n)``."""
    return pairs.bucket_all(values), (pairs.sign_all(values) if signed else None)


def read_cells(table: np.ndarray, buckets: np.ndarray, signs: Optional[np.ndarray]) -> np.ndarray:
    """``table[j, h_j(d)]``, times ``xi_j(d)`` when signs are given — shape ``(k, n)``."""
    picked = table[np.arange(table.shape[0], dtype=np.int64)[:, None], buckets]
    return picked if signs is None else picked * signs


def scan_domain(
    pairs: HashPairs,
    tables: Sequence[np.ndarray],
    cutoffs: Sequence[float],
    domain_size: int,
    *,
    read_out: str = "median",
    chunk_size: int = HASH_CHUNK,
) -> np.ndarray:
    """Sorted values of ``[0, domain_size)`` whose read-out exceeds its cutoff in any table.

    ``tables`` are ``(k, m)`` counter arrays built with ``pairs``, one
    cutoff each; ``read_out`` is the ``"median"`` or ``"mean"`` of the
    signed cells or the ``"min"`` of the unsigned ones.  Each chunk of
    candidates is hashed once for all tables, and the reduction runs only
    on candidates with enough cells above the cutoff to pass (an exact
    prune, see ``_READ_OUTS``).
    """
    reduce, signed, need = _READ_OUTS[read_out]
    hits = [np.zeros(0, dtype=np.int64)]
    for start in range(0, domain_size, chunk_size):
        candidates = np.arange(start, min(start + chunk_size, domain_size), dtype=np.int64)
        buckets, signs = hash_cells(pairs, candidates, signed=signed)
        selected = np.zeros(candidates.size, dtype=bool)
        for table, cutoff in zip(tables, cutoffs):
            picked = read_cells(table, buckets, signs)
            can_pass = np.count_nonzero(picked > cutoff, axis=0) >= need(pairs.k)
            open_ = np.flatnonzero(can_pass & ~selected)
            selected[open_] = reduce(picked[:, open_], axis=0) > cutoff
        hits.append(candidates[selected])
    return np.concatenate(hits)


class LinearSketch(abc.ABC):
    """Base class for ``(k, m)``-shaped linear sketches over integer ids.

    An update adds ``weight * c_d`` (times ``xi_j(d)`` when :attr:`signed`)
    to cell ``[j, h_j(d)]`` of every row once per distinct value ``d`` of
    multiplicity ``c_d``: hashing cost scales with the distinct values,
    plus one sort.  With integer weights the counters are integer sums
    below ``2**53``, bit-identical to per-occurrence updates in any order.
    """

    #: Whether updates add the sign ``xi_j(d)`` (else ``+1``) per row.
    signed = True

    def __init__(self, pairs: HashPairs) -> None:
        if not isinstance(pairs, HashPairs):
            raise ParameterError(f"pairs must be HashPairs, got {type(pairs).__name__}")
        self.pairs = pairs
        self.counts = np.zeros((pairs.k, pairs.m), dtype=np.float64)
        self.total_weight = 0.0

    @classmethod
    def create(cls, k: int, m: int, seed: RandomState = None) -> "LinearSketch":
        """Convenience constructor drawing fresh hash pairs."""
        return cls(HashPairs(k, m, seed))

    # ------------------------------------------------------------------
    # Shape / compatibility
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of rows (independent estimators)."""
        return self.pairs.k

    @property
    def m(self) -> int:
        """Number of buckets per row."""
        return self.pairs.m

    def check_compatible(self, other: "LinearSketch") -> None:
        """Raise unless ``other`` shares this sketch's type and hash pairs."""
        if type(other) is not type(self):
            raise IncompatibleSketchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.pairs != other.pairs:
            raise IncompatibleSketchError(
                "sketches use different hash pairs; build both from the same HashPairs"
            )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_batch(self, values: Iterable[int], weight: float = 1.0) -> None:
        """Fold a batch of values into every row, one hash per distinct value."""
        arr = as_value_array(values)
        if arr.size == 0:
            return
        distinct, multiplicity = np.unique(arr, return_counts=True)
        per_value = weight * multiplicity.astype(np.float64)
        for start in range(0, distinct.size, HASH_CHUNK):
            chunk = slice(start, start + HASH_CHUNK)
            buckets, signs = hash_cells(self.pairs, distinct[chunk], signed=self.signed)
            deltas = per_value[chunk] if signs is None else signs * per_value[chunk]
            rows = np.repeat(np.arange(self.k, dtype=np.int64), buckets.shape[1])
            deltas = np.broadcast_to(deltas, buckets.shape).ravel()
            scatter_add(self.counts, (rows, buckets.ravel()), deltas)
        self.total_weight += weight * arr.size

    def update(self, value: int, weight: float = 1.0) -> None:
        """Fold a single value into the sketch."""
        self.update_batch(np.asarray([value], dtype=np.int64), weight)

    def merge(self, other: "LinearSketch") -> "LinearSketch":
        """Add ``other``'s counters into this sketch (linearity). Returns self."""
        self.check_compatible(other)
        self.counts += other.counts
        self.total_weight += other.total_weight
        return self

    # ------------------------------------------------------------------
    # Point estimates
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def frequencies(self, values: Iterable[int]) -> np.ndarray:
        """Point estimates for a batch of values."""

    def frequency(self, value: int) -> float:
        """Point estimate for one value (see :meth:`frequencies`)."""
        return float(self.frequencies(np.asarray([value], dtype=np.int64))[0])

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _read(self, values: Iterable[int], reduce) -> np.ndarray:
        """``reduce`` over the rows of each value's cells."""
        arr = as_value_array(values)
        if arr.size == 0:
            return np.zeros(0, dtype=np.float64)
        picked = read_cells(self.counts, *hash_cells(self.pairs, arr, signed=self.signed))
        return reduce(picked, axis=0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Size of the counter array in bytes (space-cost accounting)."""
        return int(self.counts.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(k={self.k}, m={self.m}, "
            f"total_weight={self.total_weight:g})"
        )
