"""Per-row ``(h_j, xi_j)`` hash-pair families shared by clients and server.

A (fast-)AGMS-style sketch of shape ``(k, m)`` carries one bucket hash and
one sign hash per row.  Join-size estimation additionally requires that the
two attributes being joined use the *same* pairs — ``MA`` and ``MB`` in
Eq. (5) of the paper only estimate ``|A join B|`` when ``h_j`` and ``xi_j``
coincide.  :class:`HashPairs` packages the pairs, offers batched evaluation
for all rows at once, and implements value equality so that sketches can
verify compatibility before combining.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ParameterError
from ..rng import RandomState, ensure_rng, spawn, spawn_many
from ..validation import require_positive_int, require_power_of_two
from .kwise import KWiseHash, check_domain, polyval_all, polyval_rows, reduce_mod_m
from .sign import SignHash

__all__ = ["HashPairs", "attribute_pairs", "stack_pair_coefficients"]


def _stack_coefficients(hashes) -> "np.ndarray | None":
    """Stack hash coefficients into a transposed ``(degree, k)`` matrix.

    The transpose keeps each degree's ``k`` coefficients contiguous, which
    is what :func:`repro.hashing.kwise.polyval_rows` gathers from.
    Returns ``None`` when the hashes have heterogeneous degrees (possible
    via hand-built :meth:`HashPairs.from_dict` payloads), in which case
    callers fall back to the per-row loop.
    """
    degrees = {h.independence for h in hashes}
    if len(degrees) != 1:
        return None
    return np.ascontiguousarray(np.stack([h.coefficients for h in hashes]).T)


def stack_pair_coefficients(pairs_list) -> "tuple[np.ndarray, np.ndarray] | None":
    """Concatenate several :class:`HashPairs`' coefficient matrices.

    Returns ``(bucket, sign)`` transposed matrices of shape
    ``(degree, T * k)`` in which pair ``t``'s row-``j`` polynomial sits at
    column ``t * k + j`` — the gather layout of
    :func:`repro.hashing.kwise.polyval_rows` for batches that mix reports
    of ``T`` different hash-pair draws (the trial-axis client kernel).
    Memoized on the pair tuple: one grid point's trial group builds its
    stacked matrices a single time and every chunk of every stream (and
    any repeated evaluation under the same pairs) reuses them.  Returns
    ``None`` when any pair lacks stacked coefficients (heterogeneous
    degrees) or the shapes disagree.
    """
    return _stack_pair_coefficients_cached(tuple(pairs_list))


@functools.lru_cache(maxsize=128)
def _stack_pair_coefficients_cached(pairs_tuple):
    if not pairs_tuple:
        return None
    k, m = pairs_tuple[0].k, pairs_tuple[0].m
    for p in pairs_tuple:
        if p.k != k or p.m != m:
            return None
        if p._bucket_coeffs is None or p._sign_coeffs is None:
            return None
    if len({p._bucket_coeffs.shape[0] for p in pairs_tuple}) != 1:
        return None
    if len({p._sign_coeffs.shape[0] for p in pairs_tuple}) != 1:
        return None
    bucket = np.ascontiguousarray(
        np.concatenate([p._bucket_coeffs for p in pairs_tuple], axis=1)
    )
    sign = np.ascontiguousarray(
        np.concatenate([p._sign_coeffs for p in pairs_tuple], axis=1)
    )
    return bucket, sign




class HashPairs:
    """The ``k`` hash pairs ``(h_j, xi_j)`` of a width-``m`` sketch.

    Parameters
    ----------
    k:
        Number of rows (independent estimators).
    m:
        Number of buckets per row; bucket hashes map into ``[0, m)``.
    seed:
        Master seed.  Equal ``(k, m, seed)`` does **not** guarantee equal
        pairs when a live generator is passed; to share pairs between two
        sketches, share the :class:`HashPairs` *object* (the intended
        pattern) or rebuild from :meth:`to_dict`.
    bucket_independence:
        Independence degree of the bucket hashes (pairwise by default).
    """

    __slots__ = ("k", "m", "bucket_hashes", "sign_hashes", "_bucket_coeffs", "_sign_coeffs")

    def __init__(
        self,
        k: int,
        m: int,
        seed: RandomState = None,
        *,
        bucket_independence: int = 2,
        bucket_hashes: List[KWiseHash] = None,
        sign_hashes: List[SignHash] = None,
    ) -> None:
        self.k = require_positive_int("k", k)
        self.m = require_positive_int("m", m)
        if bucket_hashes is not None or sign_hashes is not None:
            if bucket_hashes is None or sign_hashes is None:
                raise ParameterError("bucket_hashes and sign_hashes must be given together")
            if len(bucket_hashes) != self.k or len(sign_hashes) != self.k:
                raise ParameterError(
                    f"expected {self.k} bucket and sign hashes, got "
                    f"{len(bucket_hashes)} and {len(sign_hashes)}"
                )
            self.bucket_hashes = list(bucket_hashes)
            self.sign_hashes = list(sign_hashes)
        else:
            rng = ensure_rng(seed)
            children = spawn_many(rng, 2 * self.k)
            self.bucket_hashes = [
                KWiseHash(independence=bucket_independence, seed=children[j]) for j in range(self.k)
            ]
            self.sign_hashes = [SignHash(seed=children[self.k + j]) for j in range(self.k)]
        # Stacked (k, degree) coefficient matrices power the batched
        # evaluation paths below; ``None`` (mixed degrees) falls back to
        # the per-row loops.
        self._bucket_coeffs = _stack_coefficients(self.bucket_hashes)
        self._sign_coeffs = _stack_coefficients([s.base for s in self.sign_hashes])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def bucket(self, row: int, values: np.ndarray) -> np.ndarray:
        """``h_row(values)`` in ``[0, m)``."""
        self._check_row(row)
        return self.bucket_hashes[row].bucket(values, self.m)

    def sign(self, row: int, values: np.ndarray) -> np.ndarray:
        """``xi_row(values)`` in ``{-1, +1}``."""
        self._check_row(row)
        return self.sign_hashes[row](values)

    def bucket_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``h_{rows[i]}(values[i])`` for per-report row assignments.

        This is the batched client path: report ``i`` goes to row
        ``rows[i]`` and needs only that row's hashes.  Each report's
        coefficients are gathered from the stacked matrix and every
        polynomial is evaluated in one vectorised Horner pass — no per-row
        masking over the batch.
        """
        rows, values = self._check_row_batch(rows, values)
        if self._bucket_coeffs is None:
            out = np.empty(values.shape, dtype=np.int64)
            for j in range(self.k):
                mask = rows == j
                if np.any(mask):
                    out[mask] = self.bucket_hashes[j].bucket(values[mask], self.m)
            return out
        check_domain(values)
        raw = polyval_rows(self._bucket_coeffs, rows, values.astype(np.uint64))
        return self._reduce_buckets(raw)

    def sign_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``xi_{rows[i]}(values[i])`` for per-report row assignments."""
        if self._sign_coeffs is None:
            rows, values = self._check_row_batch(rows, values)
            out = np.empty(values.shape, dtype=np.int64)
            for j in range(self.k):
                mask = rows == j
                if np.any(mask):
                    out[mask] = self.sign_hashes[j](values[mask])
            return out
        return 1 - 2 * self.sign_parity_rows(rows, values)

    def sign_parity_rows(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Sign *parity bits*: ``0`` where ``xi_{rows[i]}(values[i]) = +1``.

        The fused client path composes the three sign factors of a report
        (sign hash, Hadamard entry, flip channel) by XOR-ing parity bits
        instead of multiplying ``±1`` arrays — same values, fewer passes.
        """
        rows, values = self._check_row_batch(rows, values)
        if self._sign_coeffs is None:
            return (1 - self.sign_rows(rows, values)) // 2
        check_domain(values)
        raw = polyval_rows(self._sign_coeffs, rows, values.astype(np.uint64))
        return (raw & np.uint64(1)).astype(np.int64)

    def bucket_and_sign_parity_rows(
        self, rows: np.ndarray, values: np.ndarray, *, domain_checked: bool = False
    ):
        """``(bucket_rows(...), sign_parity_rows(...))`` in one pass.

        The fused client kernel needs both hashes of every report; doing
        them together shares the argument validation, the domain check and
        the uint64 conversion of ``values``.  ``domain_checked=True``
        skips the per-call range scan — for callers (the chunked fused
        kernel) that already validated the full batch up front.
        """
        rows, values = self._check_row_batch(rows, values)
        if self._bucket_coeffs is None or self._sign_coeffs is None:
            return self.bucket_rows(rows, values), self.sign_parity_rows(rows, values)
        if not domain_checked:
            check_domain(values)
        x = values.astype(np.uint64)
        buckets = self._reduce_buckets(polyval_rows(self._bucket_coeffs, rows, x))
        sign_raw = polyval_rows(self._sign_coeffs, rows, x)
        return buckets, (sign_raw & np.uint64(1)).astype(np.int64)

    def bucket_all(self, values: np.ndarray) -> np.ndarray:
        """Matrix ``H`` with ``H[j, i] = h_j(values[i])`` — shape ``(k, n)``.

        Used by the server for domain-wide frequency scans (Theorem 7) and
        by the non-private Fast-AGMS baseline, where every update touches
        every row.  All ``k`` polynomials are evaluated against the batch
        in one broadcast Horner pass.
        """
        values = np.asarray(values, dtype=np.int64)
        if self._bucket_coeffs is None:
            return np.stack(
                [self.bucket_hashes[j].bucket(values, self.m) for j in range(self.k)]
            )
        check_domain(values)
        raw = polyval_all(self._bucket_coeffs, values.astype(np.uint64))
        return self._reduce_buckets(raw)

    def sign_all(self, values: np.ndarray) -> np.ndarray:
        """Matrix ``S`` with ``S[j, i] = xi_j(values[i])`` — shape ``(k, n)``."""
        values = np.asarray(values, dtype=np.int64)
        if self._sign_coeffs is None:
            return np.stack([self.sign_hashes[j](values) for j in range(self.k)])
        check_domain(values)
        raw = polyval_all(self._sign_coeffs, values.astype(np.uint64))
        return 1 - 2 * (raw & np.uint64(1)).astype(np.int64)

    def _reduce_buckets(self, raw: np.ndarray) -> np.ndarray:
        return reduce_mod_m(raw, self.m)

    # ------------------------------------------------------------------
    # Compatibility / serialisation
    # ------------------------------------------------------------------
    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.k:
            raise ParameterError(f"row must lie in [0, {self.k}), got {row}")

    def _check_row_batch(self, rows: np.ndarray, values: np.ndarray):
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if rows.shape != values.shape:
            raise ParameterError("rows and values must have the same shape")
        return rows, values

    def to_dict(self) -> dict:
        """Serialise to a plain dict (inverse of :meth:`from_dict`)."""
        return {
            "k": self.k,
            "m": self.m,
            "bucket_hashes": [h.to_dict() for h in self.bucket_hashes],
            "sign_hashes": [s.to_dict() for s in self.sign_hashes],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HashPairs":
        """Rebuild hash pairs serialised by :meth:`to_dict`."""
        return cls(
            payload["k"],
            payload["m"],
            bucket_hashes=[KWiseHash.from_dict(h) for h in payload["bucket_hashes"]],
            sign_hashes=[SignHash.from_dict(s) for s in payload["sign_hashes"]],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashPairs):
            return NotImplemented
        return (
            self.k == other.k
            and self.m == other.m
            and self.bucket_hashes == other.bucket_hashes
            and self.sign_hashes == other.sign_hashes
        )

    def __hash__(self) -> int:
        return hash((self.k, self.m, tuple(self.bucket_hashes), tuple(self.sign_hashes)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashPairs(k={self.k}, m={self.m})"


def attribute_pairs(
    k: int,
    attribute_widths: Sequence[int],
    seed: RandomState = None,
    *,
    pairs: Optional[Sequence[HashPairs]] = None,
) -> List[HashPairs]:
    """One :class:`HashPairs` per join attribute of a chain schema.

    Shared ``pairs`` are checked against ``k`` (and ``attribute_widths``
    when given) and returned as a list; otherwise one pair family of
    width ``m`` is drawn per entry of ``attribute_widths`` (each a power
    of two), from a child generator of ``seed``.
    """
    if pairs is not None:
        pairs = list(pairs)
        if not pairs:
            raise ParameterError("need at least one join attribute")
        for p in pairs:
            if p.k != k:
                raise ParameterError(f"shared hash pairs must have k={k}, got {p.k}")
        if attribute_widths and [p.m for p in pairs] != list(attribute_widths):
            raise ParameterError("attribute_widths do not match the provided hash pairs")
        return pairs
    if not attribute_widths:
        raise ParameterError("need at least one join attribute")
    rng = ensure_rng(seed)
    return [HashPairs(k, require_power_of_two("m", m), spawn(rng)) for m in attribute_widths]
