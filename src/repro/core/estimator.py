"""Estimation helpers on top of constructed LDPJoinSketches.

Two free functions keep the server read-out logic reusable outside the
sketch class:

* :func:`estimate_join_size` — Eq. (5) with input checking, the function
  the protocol drivers and experiment harness call;
* :func:`find_frequent_items` — the phase-1 step of LDPJoinSketch+
  (Section V-C): scan a candidate domain with Theorem 7 frequency
  estimates and keep every value whose estimate exceeds
  ``threshold * total``; the paper's frequent-item set is the *union*
  of the two attributes' sets, which one call over both sketches
  returns from a single hash pass.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..errors import ParameterError
from ..sketches.base import HASH_CHUNK, scan_domain
from ..validation import require_positive_int, require_probability
from .server import LDPJoinSketch

__all__ = ["estimate_join_size", "find_frequent_items"]


def estimate_join_size(sketch_a: LDPJoinSketch, sketch_b: LDPJoinSketch) -> float:
    """Eq. (5): ``median_j sum_x MA[j, x] * MB[j, x]``."""
    return sketch_a.join_size(sketch_b)


def find_frequent_items(
    sketches: Union[LDPJoinSketch, Sequence[LDPJoinSketch]],
    domain_size: int,
    threshold: float,
    *,
    total: Optional[float] = None,
    chunk_size: int = HASH_CHUNK,
    method: str = "median",
) -> np.ndarray:
    """Values whose estimated frequency exceeds ``threshold * total``.

    Parameters
    ----------
    sketches:
        One constructed LDPJoinSketch summarising an attribute (phase 1 of
        LDPJoinSketch+ builds it from sampled users), or several built
        with the same :class:`~repro.hashing.HashPairs`.  Several sketches
        return the *union* of their frequent sets — the paper's
        ``FI = FI_A ∪ FI_B`` — equal to ``np.union1d`` of one call per
        sketch, but each candidate is hashed once for all of them.
    domain_size:
        Candidate domain ``[0, domain_size)`` to scan.
    threshold:
        The paper's relative threshold ``theta`` in ``(0, 1]``.
    total:
        Reference total frequency, shared by every sketch; defaults to
        each sketch's own report count (``|S_A|``), matching
        ``FI_A = {d : f~(d) > theta |A|}`` evaluated at sample scale.
    chunk_size:
        Domain values are scanned in chunks of this size, which bounds
        memory to ``k x chunk`` intermediates; the default keeps them
        cache-resident.
    method:
        ``"median"`` (default) selects with the collision-robust
        Count-Sketch read-out; ``"mean"`` is the paper-verbatim Theorem 7
        estimator, which a single colliding heavy value can push over the
        threshold for thousands of light items (see DESIGN.md).  The
        median selection is pruned exactly: a median of ``k`` rows exceeds
        the cutoff only if at least ``ceil(k/2)`` rows do, so the median is
        computed only for candidates with that many rows above it.

    Returns
    -------
    numpy.ndarray
        Sorted array of frequent value ids.
    """
    sketches = [sketches] if isinstance(sketches, LDPJoinSketch) else list(sketches)
    if not sketches:
        raise ParameterError("find_frequent_items needs at least one sketch")
    for other in sketches[1:]:
        sketches[0].check_compatible(other)
    domain_size = require_positive_int("domain_size", domain_size)
    threshold = require_probability("threshold", threshold)
    chunk_size = require_positive_int("chunk_size", chunk_size)
    if method not in ("mean", "median"):
        raise ParameterError(f"method must be 'mean' or 'median', got {method!r}")
    if total is not None and total < 0:
        raise ParameterError(f"total must be >= 0, got {total}")
    cutoffs = [
        threshold * (float(sketch.num_reports) if total is None else total)
        for sketch in sketches
    ]
    return scan_domain(
        sketches[0].pairs,
        [sketch.counts for sketch in sketches],
        cutoffs,
        domain_size,
        read_out=method,
        chunk_size=chunk_size,
    )
