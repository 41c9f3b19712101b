"""Multi-way chain joins under LDP — the Section VI extension.

The construction privatises COMPASS (see :mod:`repro.sketches.compass`):

* **end tables** (one join attribute) run the ordinary LDPJoinSketch
  protocol with that attribute's hash pairs; the ``k`` sketch rows double
  as the ``k`` COMPASS replicas;
* a **middle table** tuple ``t = (a, b)`` with join attributes ``(A, B)``
  is encoded by sampling a replica ``j ~ U[k]`` and two columns
  ``l1 ~ U[m1]``, ``l2 ~ U[m2]`` and reporting the doubly-transformed
  sample

  .. math::

     y = b_\\pm \\cdot H_{m_1}[h_A(a), l_1]\\; \\xi_A(a)\\,\\xi_B(b)\\;
         H_{m_2}[l_2, h_B(b)],

  with the usual sign channel ``Pr[b_\\pm = -1] = 1/(e^\\epsilon+1)``.
  The server accumulates ``k \\cdot c_\\epsilon \\cdot y`` into cell
  ``[j, l_1, l_2]`` and inverts the transform on both axes
  (``M~ = H^T M H^T``, one FWHT per axis).

The chain estimate is the replica-wise vector/matrix chain product,
median over replicas (Eq. 27).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..accumulate import scatter_add_signed_units
from ..errors import (
    IncompatibleSketchError,
    ParameterError,
    require_merge_compatible,
)
from ..hashing import HashPairs, attribute_pairs
from ..privacy.response import c_epsilon, flip_probability
from ..rng import RandomState, ensure_rng
from ..transform.hadamard import fwht_inplace, sample_hadamard_entries
from ..validation import (
    as_value_array,
    require_positive_float,
    require_positive_int,
)
from .client import ReportBatch, encode_reports
from .params import SketchParams
from .server import LDPJoinSketch, build_sketch

__all__ = [
    "MiddleReportBatch",
    "LDPMiddleSketch",
    "LDPCompassProtocol",
    "finalize_middle_counts",
]


def finalize_middle_counts(raw: np.ndarray) -> np.ndarray:
    """Invert the client transform of a middle-table accumulator on both
    axes: ``M~ = H_m1 M H_m2`` (one FWHT per axis).

    Shared by :meth:`LDPCompassProtocol.build_middle` and the incremental
    :class:`~repro.api.JoinSession`, which accumulates pre-transform and
    finalises on demand.
    """
    raw = np.ascontiguousarray(raw, dtype=np.float64)
    fwht_inplace(raw)                       # right axis
    raw = np.swapaxes(raw, 1, 2).copy()
    fwht_inplace(raw)                       # left axis
    return np.swapaxes(raw, 1, 2).copy()


@dataclass(frozen=True)
class MiddleReportBatch:
    """Wire format of middle-table reports: ``(y, j, l1, l2)`` per tuple."""

    ys: np.ndarray
    replicas: np.ndarray
    left_cols: np.ndarray
    right_cols: np.ndarray
    k: int
    m_left: int
    m_right: int
    epsilon: float

    def __post_init__(self) -> None:
        for name in ("ys", "replicas", "left_cols", "right_cols"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        shapes = {self.ys.shape, self.replicas.shape, self.left_cols.shape, self.right_cols.shape}
        if len(shapes) != 1 or self.ys.ndim != 1:
            raise ParameterError("report components must be equal-length 1-D arrays")

    def __len__(self) -> int:
        return int(self.ys.size)

    @property
    def report_bits(self) -> int:
        """Bits per report: sign + replica index + two column indices."""
        return (
            1
            + max(1, int(np.ceil(np.log2(self.k))))
            + max(1, int(np.ceil(np.log2(self.m_left))))
            + max(1, int(np.ceil(np.log2(self.m_right))))
        )

    @property
    def total_bits(self) -> int:
        """Total uplink bits of this batch."""
        return len(self) * self.report_bits


class LDPMiddleSketch:
    """Constructed two-attribute sketch: ``k`` replicas of ``(m1, m2)``."""

    __slots__ = ("left_pairs", "right_pairs", "counts", "epsilon", "num_reports")

    def __init__(
        self,
        left_pairs: HashPairs,
        right_pairs: HashPairs,
        counts: np.ndarray,
        epsilon: float,
        num_reports: int,
    ) -> None:
        if left_pairs.k != right_pairs.k:
            raise ParameterError("left and right hash pairs must share k")
        expected = (left_pairs.k, left_pairs.m, right_pairs.m)
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != expected:
            raise ParameterError(f"counts shaped {counts.shape}, expected {expected}")
        self.left_pairs = left_pairs
        self.right_pairs = right_pairs
        self.counts = counts
        self.epsilon = epsilon
        self.num_reports = int(num_reports)

    @property
    def k(self) -> int:
        """Number of replicas."""
        return self.left_pairs.k

    def memory_bytes(self) -> int:
        """Size of the counter tensor in bytes."""
        return int(self.counts.nbytes)

    def check_mergeable(self, other: "LDPMiddleSketch") -> None:
        """Raise :class:`IncompatibleSketchError` unless ``other`` shares
        hash pairs (both attributes) and privacy budget."""
        if not isinstance(other, LDPMiddleSketch):
            raise IncompatibleSketchError(
                f"cannot merge LDPMiddleSketch with {type(other).__name__}"
            )
        require_merge_compatible(
            "middle sketches",
            **{
                "hash pairs": (
                    (self.left_pairs, self.right_pairs),
                    (other.left_pairs, other.right_pairs),
                ),
                "privacy budget (epsilon)": (self.epsilon, other.epsilon),
            },
        )

    def merge(self, other: "LDPMiddleSketch") -> "LDPMiddleSketch":
        """Add ``other``'s counters into this sketch (post-transform sum —
        valid because the FWHT is linear). Returns self."""
        self.check_mergeable(other)
        self.counts += other.counts
        self.num_reports += other.num_reports
        return self


class LDPCompassProtocol:
    """End-to-end LDP chain-join protocol over ``n`` join attributes.

    Parameters
    ----------
    attribute_widths:
        Sketch width ``m`` (power of two) per join attribute.
    k:
        Number of replicas, shared by every attribute.
    epsilon:
        Per-report privacy budget (each user owns one tuple of one table,
        so one report exhausts the whole budget).
    seed:
        Master seed for the attribute hash pairs.
    """

    def __init__(
        self,
        attribute_widths: Sequence[int],
        k: int,
        epsilon: float,
        seed: RandomState = None,
        *,
        pairs: Optional[Sequence[HashPairs]] = None,
    ) -> None:
        self.k = require_positive_int("k", k)
        self.epsilon = require_positive_float("epsilon", epsilon)
        self.attribute_pairs: List[HashPairs] = attribute_pairs(
            self.k, attribute_widths, seed, pairs=pairs
        )

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[HashPairs], epsilon: float
    ) -> "LDPCompassProtocol":
        """A protocol over pre-built hash pairs (one per join attribute).

        This is the sharding path: every shard (and every client cohort)
        of one collection period must run against the *same* pairs, so the
        coordinator builds them once and the shards are constructed from
        them.
        """
        pairs = list(pairs)
        if not pairs:
            raise ParameterError("need at least one join attribute")
        return cls((), pairs[0].k, epsilon, pairs=pairs)

    @property
    def num_attributes(self) -> int:
        """Number of join attributes in the chain."""
        return len(self.attribute_pairs)

    def params_for(self, attribute: int) -> SketchParams:
        """The :class:`SketchParams` of one attribute's end sketch."""
        pairs = self._pairs(attribute)
        return SketchParams(self.k, pairs.m, self.epsilon)

    # ------------------------------------------------------------------
    # End tables (single join attribute): plain LDPJoinSketch
    # ------------------------------------------------------------------
    def encode_end(
        self,
        attribute: int,
        values: Iterable[int],
        rng: RandomState = None,
    ) -> ReportBatch:
        """Client side for an end table (Algorithm 1 with shared pairs)."""
        return encode_reports(values, self.params_for(attribute), self._pairs(attribute), rng)

    def build_end(self, attribute: int, reports: ReportBatch) -> LDPJoinSketch:
        """Server side for an end table (Algorithm 2)."""
        return build_sketch(reports, self._pairs(attribute))

    # ------------------------------------------------------------------
    # Middle tables (two join attributes)
    # ------------------------------------------------------------------
    def encode_middle(
        self,
        left_attribute: int,
        left_values: Iterable[int],
        right_values: Iterable[int],
        rng: RandomState = None,
    ) -> MiddleReportBatch:
        """Client side for a two-attribute middle table (Fig. 4)."""
        return self._encode_two_attribute(
            self._pairs(left_attribute),
            self._pairs(left_attribute + 1),
            left_values,
            right_values,
            rng,
        )

    def encode_cycle_table(
        self,
        index: int,
        left_values: Iterable[int],
        right_values: Iterable[int],
        rng: RandomState = None,
    ) -> MiddleReportBatch:
        """Client side for table ``index`` of a cycle join.

        Cycle table ``i`` joins attribute ``i`` with ``(i + 1) mod n``; the
        wrap-around closes the ring (Section VI discussion).
        """
        return self._encode_two_attribute(
            self._pairs(index % self.num_attributes),
            self._pairs((index + 1) % self.num_attributes),
            left_values,
            right_values,
            rng,
        )

    def _encode_two_attribute(
        self,
        left_pairs: HashPairs,
        right_pairs: HashPairs,
        left_values: Iterable[int],
        right_values: Iterable[int],
        rng: RandomState = None,
    ) -> MiddleReportBatch:
        left = as_value_array(left_values, "left_values")
        right = as_value_array(right_values, "right_values")
        if left.shape != right.shape:
            raise ParameterError("left and right columns must have equal length")
        generator = ensure_rng(rng)
        n = left.size
        replicas = generator.integers(0, self.k, size=n)
        l1 = generator.integers(0, left_pairs.m, size=n)
        l2 = generator.integers(0, right_pairs.m, size=n)
        left_buckets = left_pairs.bucket_rows(replicas, left)
        right_buckets = right_pairs.bucket_rows(replicas, right)
        signs = left_pairs.sign_rows(replicas, left) * right_pairs.sign_rows(replicas, right)
        w = (
            signs
            * sample_hadamard_entries(left_buckets, l1, left_pairs.m)
            * sample_hadamard_entries(l2, right_buckets, right_pairs.m)
        )
        flips = generator.random(n) < flip_probability(self.epsilon)
        ys = np.where(flips, -w, w).astype(np.int64)
        return MiddleReportBatch(
            ys, replicas, l1, l2, self.k, left_pairs.m, right_pairs.m, self.epsilon
        )

    def build_middle(self, left_attribute: int, reports: MiddleReportBatch) -> LDPMiddleSketch:
        """Server side for a middle table: accumulate, double-FWHT, debias."""
        return self._build_two_attribute(
            self._pairs(left_attribute), self._pairs(left_attribute + 1), reports
        )

    def build_cycle_table(self, index: int, reports: MiddleReportBatch) -> LDPMiddleSketch:
        """Server side for cycle table ``index`` (wrap-around pairing)."""
        return self._build_two_attribute(
            self._pairs(index % self.num_attributes),
            self._pairs((index + 1) % self.num_attributes),
            reports,
        )

    def _build_two_attribute(
        self,
        left_pairs: HashPairs,
        right_pairs: HashPairs,
        reports: MiddleReportBatch,
    ) -> LDPMiddleSketch:
        if reports.m_left != left_pairs.m or reports.m_right != right_pairs.m or reports.k != self.k:
            raise IncompatibleSketchError("middle reports do not match the protocol shape")
        accum = np.zeros((self.k, left_pairs.m, right_pairs.m), dtype=np.int64)
        scatter_add_signed_units(
            accum, (reports.replicas, reports.left_cols, reports.right_cols), reports.ys
        )
        scale = self.k * c_epsilon(self.epsilon)
        # Finalisation boundary: the int64 accumulator is scaled into the
        # float table the sketch queries — named so (not ``raw``) because
        # merge paths must never see a float-cast accumulator (RPR102).
        table = finalize_middle_counts(accum.astype(np.float64) * scale)
        return LDPMiddleSketch(left_pairs, right_pairs, table, self.epsilon, len(reports))

    # ------------------------------------------------------------------
    # Chain estimation (Eq. 27)
    # ------------------------------------------------------------------
    def estimate_chain(
        self,
        first: LDPJoinSketch,
        middles: Sequence[LDPMiddleSketch],
        last: LDPJoinSketch,
    ) -> float:
        """Median over replicas of the chain product
        ``M1[j] @ M2[j] @ ... @ Mn[j]``."""
        if len(middles) != self.num_attributes - 1:
            raise IncompatibleSketchError(
                f"chain over {self.num_attributes} attributes needs "
                f"{self.num_attributes - 1} middle sketches, got {len(middles)}"
            )
        if first.pairs != self.attribute_pairs[0]:
            raise IncompatibleSketchError("first end sketch does not use attribute 0 hash pairs")
        if last.pairs != self.attribute_pairs[-1]:
            raise IncompatibleSketchError(
                "last end sketch does not use the final attribute hash pairs"
            )
        for idx, mid in enumerate(middles):
            if (
                mid.left_pairs != self.attribute_pairs[idx]
                or mid.right_pairs != self.attribute_pairs[idx + 1]
            ):
                raise IncompatibleSketchError(
                    f"middle sketch {idx} does not match the chain hash pairs"
                )
        # Replica-batched chain product: one (k, 1, m) @ (k, m, m') matmul
        # per middle table instead of the k-by-middles Python double loop —
        # the j-th batch entry is exactly the j-th replica's vector/matrix
        # chain (tests pin the equivalence against the loop form).
        acc = first.counts[:, None, :]
        for mid in middles:
            acc = np.matmul(acc, mid.counts)
        estimates = np.matmul(acc, last.counts[:, :, None])[:, 0, 0]
        return float(np.median(estimates))

    def estimate_cycle(self, tables: Sequence[LDPMiddleSketch]) -> float:
        """Median over replicas of the cycle-product trace (Section VI
        discussion: "uncomplicated cyclic joins").

        ``tables[i]`` must join attribute ``i`` with ``(i + 1) mod n``; the
        replica-``j`` estimate is ``trace(M_0[j] @ ... @ M_{n-1}[j])``.
        """
        if len(tables) != self.num_attributes:
            raise IncompatibleSketchError(
                f"a cycle over {self.num_attributes} attributes needs "
                f"{self.num_attributes} tables, got {len(tables)}"
            )
        for idx, sketch in enumerate(tables):
            expected_left = self.attribute_pairs[idx]
            expected_right = self.attribute_pairs[(idx + 1) % self.num_attributes]
            if sketch.left_pairs != expected_left or sketch.right_pairs != expected_right:
                raise IncompatibleSketchError(
                    f"cycle table {idx} does not match the ring hash pairs"
                )
        # Same replica-batched product as estimate_chain, closed by the
        # per-replica trace of the (k, m, m) ring product.
        acc = tables[0].counts
        for sketch in tables[1:]:
            acc = np.matmul(acc, sketch.counts)
        estimates = np.trace(acc, axis1=1, axis2=2)
        return float(np.median(estimates))

    def _pairs(self, attribute: int) -> HashPairs:
        if not 0 <= attribute < self.num_attributes:
            raise ParameterError(
                f"attribute must lie in [0, {self.num_attributes}), got {attribute}"
            )
        return self.attribute_pairs[attribute]
