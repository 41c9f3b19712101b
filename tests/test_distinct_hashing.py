"""Exactness of hashing each distinct value once.

Two rewrites must not change a single bit:

* the linear sketches fold a batch by multiplicity (one hash per distinct
  value, ``weight * count`` scattered), which must equal folding every
  occurrence on its own;
* the domain scan behind :func:`repro.core.find_frequent_items` and the
  ``heavy_hitters`` methods hashes each candidate once for several tables
  and computes a median only where ``ceil(k/2)`` rows clear the cutoff,
  which must select exactly what a full-domain ``np.median`` selects.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LDPJoinSketch, SketchParams, find_frequent_items
from repro.errors import DomainError, IncompatibleSketchError
from repro.hashing import MERSENNE_PRIME_31, HashPairs
from repro.sketches import (
    AGMSSketch,
    CountMeanSketch,
    CountMinSketch,
    CountSketch,
    FastAGMSSketch,
)
from repro.sketches.base import HASH_CHUNK


def _per_occurrence(pairs: HashPairs, values, weight: float, signed: bool) -> np.ndarray:
    """Reference fold: every occurrence scattered on its own, in stream order."""
    counts = np.zeros((pairs.k, pairs.m), dtype=np.float64)
    values = np.asarray(values, dtype=np.int64)
    for j in range(pairs.k):
        buckets = pairs.bucket(j, values)
        deltas = weight * (pairs.sign(j, values) if signed else np.ones(values.size))
        np.add.at(counts[j], buckets, deltas.astype(np.float64))
    return counts


def _streams():
    rng = np.random.default_rng(2024)
    return {
        "heavy repeats": rng.zipf(1.3, 20_000) % 5_000,
        "few distinct": rng.integers(0, 7, 5_000),
        "all distinct": rng.permutation(30_000) * 7 + 3,
        "empty": np.zeros(0, dtype=np.int64),
        "single": np.array([MERSENNE_PRIME_31 - 2]),
    }


class TestMultiplicityFold:
    @pytest.mark.parametrize("stream", sorted(_streams()))
    @pytest.mark.parametrize("weight", [1.0, 5.0])
    @pytest.mark.parametrize(
        "cls, signed",
        [(FastAGMSSketch, True), (CountSketch, True), (CountMinSketch, False), (CountMeanSketch, False)],
    )
    def test_counters_bit_identical_to_per_occurrence(self, cls, signed, weight, stream):
        values = _streams()[stream]
        pairs = HashPairs(6, 128, seed=3)
        sketch = cls(pairs)
        sketch.update_batch(values[: values.size // 3], weight)
        sketch.update_batch(values[values.size // 3 :], weight)
        reference = _per_occurrence(pairs, values, weight, signed)
        assert sketch.counts.tobytes() == reference.tobytes()
        assert sketch.total_weight == weight * values.size

    def test_agms_counters_equal_per_occurrence_sums(self):
        values = _streams()["heavy repeats"][:4_000]
        sketch = AGMSSketch.create(2, 4, seed=5)
        sketch.update_batch(values, weight=5.0)
        reference = np.array(
            [[5.0 * float(np.sum(h(values))) for h in row] for row in sketch.sign_hashes]
        )
        assert sketch.counts.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "cls", [FastAGMSSketch, CountSketch, CountMinSketch, CountMeanSketch]
    )
    @pytest.mark.parametrize("bad", [-1, MERSENNE_PRIME_31, 2**40])
    def test_out_of_domain_values_raise(self, cls, bad):
        sketch = cls(HashPairs(3, 16, seed=1))
        with pytest.raises(DomainError):
            sketch.update_batch([4, bad, 4])
        assert not sketch.counts.any()

    @pytest.mark.parametrize("bad", [-1, MERSENNE_PRIME_31])
    def test_agms_out_of_domain_values_raise(self, bad):
        with pytest.raises(DomainError):
            AGMSSketch.create(2, 2, seed=1).update_batch([bad, 1])


# ----------------------------------------------------------------------
# The shared, pruned domain scan
# ----------------------------------------------------------------------
def _cell_sketch(pairs: HashPairs, cells: np.ndarray, num_reports: int) -> LDPJoinSketch:
    params = SketchParams(k=pairs.k, m=pairs.m, epsilon=1.0)
    return LDPJoinSketch(params, pairs, cells.astype(np.float64), num_reports)


def _full_domain_selection(sketch: LDPJoinSketch, domain: int, cutoff: float, method: str):
    """Unpruned reference: reduce every candidate's signed cells, then compare."""
    candidates = np.arange(domain, dtype=np.int64)
    rows = np.arange(sketch.k)[:, None]
    picked = sketch.counts[rows, sketch.pairs.bucket_all(candidates)] * sketch.pairs.sign_all(
        candidates
    )
    reduce = np.median if method == "median" else np.mean
    return candidates[reduce(picked, axis=0) > cutoff]


@st.composite
def _scan_case(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.sampled_from([2, 4, 8]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    # Quarter-valued cells make many signed cells (and even-k medians, the
    # mean of two middle cells) land exactly on, or just off, a cutoff.
    tables = [
        np.asarray(draw(st.lists(st.integers(-12, 12), min_size=k * m, max_size=k * m)))
        .reshape(k, m) / 4.0
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    reports = [draw(st.integers(min_value=0, max_value=6)) for _ in tables]
    domain = draw(st.integers(min_value=1, max_value=200))
    chunk = draw(st.integers(min_value=1, max_value=domain + 3))
    total = draw(st.sampled_from([None, 0.0, 2.0, 4.0]))
    return k, m, seed, tables, reports, domain, chunk, total


class TestPrunedScan:
    @given(_scan_case(), st.sampled_from(["median", "mean"]))
    @settings(max_examples=300, deadline=None)
    def test_equals_union_of_full_domain_selections(self, case, method):
        k, m, seed, tables, reports, domain, chunk, total = case
        pairs = HashPairs(k, m, seed=seed)
        sketches = [_cell_sketch(pairs, t, n) for t, n in zip(tables, reports)]
        threshold = 0.5
        expected = np.zeros(0, dtype=np.int64)
        for sketch in sketches:
            cutoff = threshold * (sketch.num_reports if total is None else total)
            single = find_frequent_items(
                sketch, domain, threshold, total=total, chunk_size=chunk, method=method
            )
            reference = _full_domain_selection(sketch, domain, cutoff, method)
            assert single.tobytes() == reference.tobytes()
            expected = np.union1d(expected, single)
        together = find_frequent_items(
            sketches, domain, threshold, total=total, chunk_size=chunk, method=method
        )
        assert together.dtype == expected.dtype
        assert together.tobytes() == expected.tobytes()

    def test_even_k_median_on_two_rows_above_cutoff(self):
        # k = 4: cells (+5, +5, -5, -5) give median 0, cells (+5, +5, -1, -5)
        # give median 2 > 1 with only two rows above the cutoff -- the
        # prune must keep ceil(k/2) = 2, not k/2 + 1.
        pairs = HashPairs(4, 2, seed=7)
        value = 0
        buckets = pairs.bucket_all(np.array([value]))[:, 0]
        signs = pairs.sign_all(np.array([value]))[:, 0]
        cells = np.zeros((4, 2))
        cells[np.arange(4), buckets] = signs * np.array([5.0, 5.0, -1.0, -5.0])
        sketch = _cell_sketch(pairs, cells, 2)
        assert value in find_frequent_items(sketch, 1, threshold=0.5)

    def test_rejects_sketches_with_different_pairs(self):
        a = _cell_sketch(HashPairs(3, 4, seed=1), np.ones((3, 4)), 1)
        b = _cell_sketch(HashPairs(3, 4, seed=2), np.ones((3, 4)), 1)
        with pytest.raises(IncompatibleSketchError):
            find_frequent_items([a, b], 10, threshold=0.5)


class TestHeavyHitters:
    #: Spans several scan chunks and ends in a partial one.
    DOMAIN = 2 * HASH_CHUNK + 1_808

    def _sketches(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([np.full(3_000, 17), rng.zipf(1.2, 6_000) % self.DOMAIN])
        pairs = HashPairs(5, 32, seed=12)
        count_sketch, count_min = CountSketch(pairs), CountMinSketch(pairs)
        count_sketch.update_batch(values)
        count_min.update_batch(values)
        return count_sketch, count_min

    @pytest.mark.parametrize("threshold", [0.0, 40.0, 2_500.0])
    def test_count_sketch_equals_unchunked_reference(self, threshold):
        sketch, _ = self._sketches()
        candidates = np.arange(self.DOMAIN)
        estimates = sketch.frequencies(candidates)
        values, found = sketch.heavy_hitters(self.DOMAIN, threshold)
        mask = estimates > threshold
        assert values.tobytes() == candidates[mask].tobytes()
        assert found.tobytes() == estimates[mask].tobytes()

    @pytest.mark.parametrize("threshold", [0.0, 40.0, 2_500.0])
    def test_count_min_equals_unchunked_reference(self, threshold):
        _, sketch = self._sketches()
        candidates = np.arange(self.DOMAIN)
        estimates = sketch.frequencies(candidates)
        values = sketch.heavy_hitters(self.DOMAIN, threshold)
        assert values.tobytes() == candidates[estimates > threshold].tobytes()

    def test_memory_is_bounded_by_the_chunk(self):
        sketch = CountSketch(HashPairs(4, 16, seed=3))
        sketch.update_batch(np.arange(100))
        tracemalloc.start()
        try:
            sketch.heavy_hitters(1 << 20, threshold=1e9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One unchunked (k, D) int64 matrix alone would be 32 MiB.
        assert peak < 4 * 2**20
