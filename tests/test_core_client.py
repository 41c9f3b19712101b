"""Tests for the LDPJoinSketch client (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import JoinSession
from repro.core import (
    PackedReports,
    ReportBatch,
    SketchParams,
    encode_report,
    encode_reports,
    encode_reports_into,
    encode_reports_packed,
    packed_report_dtype,
)
from repro.errors import DomainError, ParameterError
from repro.hashing import HashPairs
from repro.transform import hadamard_matrix


class TestEncodeReport:
    def test_output_ranges(self, small_params, small_pairs):
        rng = np.random.default_rng(0)
        for _ in range(200):
            y, j, l = encode_report(5, small_params, small_pairs, rng)
            assert y in (-1, 1)
            assert 0 <= j < small_params.k
            assert 0 <= l < small_params.m

    def test_deterministic_given_rng(self, small_params, small_pairs):
        out1 = encode_report(5, small_params, small_pairs, np.random.default_rng(3))
        out2 = encode_report(5, small_params, small_pairs, np.random.default_rng(3))
        assert out1 == out2

    def test_payload_formula_without_flip(self, small_pairs):
        # With a huge epsilon the sign channel never flips, so the report
        # must equal xi_j(d) * H[h_j(d), l] exactly.
        params = SketchParams(k=3, m=8, epsilon=100.0)
        h = hadamard_matrix(params.m)
        rng = np.random.default_rng(4)
        for d in (0, 3, 11):
            y, j, l = encode_report(d, params, small_pairs, rng)
            bucket = small_pairs.bucket(j, np.array([d]))[0]
            sign = small_pairs.sign(j, np.array([d]))[0]
            assert y == sign * h[bucket, l]

    def test_pairs_shape_checked(self, small_params):
        wrong = HashPairs(small_params.k + 1, small_params.m, seed=1)
        with pytest.raises(ParameterError, match="do not match"):
            encode_report(0, small_params, wrong)


class TestEncodeReports:
    def test_batch_matches_scalar_given_same_rng(self, small_params, small_pairs):
        values = np.array([1, 7, 7, 3, 0, 12])
        batch = encode_reports(values, small_params, small_pairs, np.random.default_rng(5))
        # The batched path draws (rows, cols, flips) in a different order
        # than repeated scalar calls, so compare distributions instead of
        # the exact stream: payloads must obey the same formula.
        params_inf = SketchParams(small_params.k, small_params.m, 100.0)
        batch = encode_reports(values, params_inf, small_pairs, np.random.default_rng(5))
        h = hadamard_matrix(params_inf.m)
        for i, d in enumerate(values):
            bucket = small_pairs.bucket(int(batch.rows[i]), np.array([d]))[0]
            sign = small_pairs.sign(int(batch.rows[i]), np.array([d]))[0]
            assert batch.ys[i] == sign * h[bucket, batch.cols[i]]

    def test_row_col_distributions_uniform(self, small_params, small_pairs):
        n = 60_000
        batch = encode_reports(
            np.zeros(n, dtype=np.int64), small_params, small_pairs, np.random.default_rng(6)
        )
        row_counts = np.bincount(batch.rows, minlength=small_params.k)
        col_counts = np.bincount(batch.cols, minlength=small_params.m)
        assert np.all(np.abs(row_counts - n / small_params.k) < 5 * np.sqrt(n / small_params.k))
        assert np.all(np.abs(col_counts - n / small_params.m) < 5 * np.sqrt(n / small_params.m))

    def test_flip_rate_matches_epsilon(self, small_pairs):
        # With the all-ones Hadamard row (bucket 0 hashes...) easier: use
        # epsilon-only check via the empirical sign agreement rate.
        params = SketchParams(k=3, m=8, epsilon=2.0)
        n = 100_000
        values = np.full(n, 4, dtype=np.int64)
        batch = encode_reports(values, params, small_pairs, np.random.default_rng(7))
        h = hadamard_matrix(params.m)
        buckets = small_pairs.bucket_rows(batch.rows, values)
        signs = small_pairs.sign_rows(batch.rows, values)
        unperturbed = signs * h[buckets, batch.cols]
        agreement = float(np.mean(batch.ys == unperturbed))
        assert abs(agreement - params.flip_probability * 0 - (1 - params.flip_probability)) < 0.006

    def test_empty_batch(self, small_params, small_pairs):
        batch = encode_reports([], small_params, small_pairs)
        assert len(batch) == 0
        assert batch.total_bits == 0

    def test_total_bits(self, small_params, small_pairs):
        batch = encode_reports(np.arange(10), small_params, small_pairs, 0)
        assert batch.total_bits == 10 * small_params.report_bits


class TestReportBatch:
    def test_validation_shapes(self, small_params):
        with pytest.raises(ParameterError, match="equal-length"):
            ReportBatch(np.array([1]), np.array([0, 0]), np.array([0]), small_params)

    def test_validation_sign_values(self, small_params):
        with pytest.raises(ParameterError, match="-1/\\+1"):
            ReportBatch(np.array([2]), np.array([0]), np.array([0]), small_params)

    def test_validation_row_range(self, small_params):
        with pytest.raises(ParameterError, match="rows"):
            ReportBatch(
                np.array([1]), np.array([small_params.k]), np.array([0]), small_params
            )

    def test_validation_col_range(self, small_params):
        with pytest.raises(ParameterError, match="cols"):
            ReportBatch(
                np.array([1]), np.array([0]), np.array([small_params.m]), small_params
            )

    def test_concat(self, small_params, small_pairs):
        b1 = encode_reports(np.arange(5), small_params, small_pairs, 1)
        b2 = encode_reports(np.arange(3), small_params, small_pairs, 2)
        combined = b1.concat(b2)
        assert len(combined) == 8
        assert np.array_equal(combined.ys[:5], b1.ys)
        assert np.array_equal(combined.ys[5:], b2.ys)

    def test_concat_requires_same_params(self, small_params, small_pairs):
        other_params = SketchParams(small_params.k, small_params.m, 9.0)
        b1 = encode_reports(np.arange(5), small_params, small_pairs, 1)
        b2 = encode_reports(np.arange(5), other_params, small_pairs, 1)
        with pytest.raises(ParameterError, match="different parameters"):
            b1.concat(b2)


class TestPackedReports:
    """``encode_reports_packed``: the same draws as ``encode_reports_into``."""

    @staticmethod
    def _heterogeneous_pairs(params):
        # Mixed hash degrees leave no stacked coefficients, so the encoder
        # takes the generic per-chunk path instead of the fused kernel.
        from repro.hashing.kwise import KWiseHash
        from repro.hashing.sign import SignHash

        pairs = HashPairs(
            params.k,
            params.m,
            bucket_hashes=[
                KWiseHash(independence=2 + (j % 2), seed=j) for j in range(params.k)
            ],
            sign_hashes=[SignHash(seed=100 + j) for j in range(params.k)],
        )
        assert pairs._bucket_coeffs is None
        return pairs

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("chunk_size", [50, 8192])
    def test_fold_matches_fused_accumulator(self, fused, chunk_size):
        params = SketchParams(k=5, m=64, epsilon=1.5)
        pairs = HashPairs(5, 64, seed=2) if fused else self._heterogeneous_pairs(params)
        values = np.random.default_rng(0).integers(0, 10_000, size=20_000)
        packed = encode_reports_packed(
            values, params, pairs, rng=9, chunk_size=chunk_size
        )
        assert packed.codes.dtype == np.dtype("<u2") and len(packed) == values.size
        folded = np.zeros((params.k, params.m), dtype=np.int64)
        cells, ys = packed.cells_and_signs()
        np.add.at(folded.reshape(-1), cells, ys)
        reference = np.zeros_like(folded)
        encode_reports_into(
            values, params, pairs, reference, rng=9, chunk_size=chunk_size
        )
        assert np.array_equal(folded, reference)

    def test_session_folds_packed_reports_like_values(self):
        params = SketchParams(k=4, m=32, epsilon=2.0)
        values = np.random.default_rng(1).integers(0, 500, size=3000)
        direct = JoinSession(params, seed=4)
        direct.collect("A", values, seed=11)
        packed = JoinSession(params, pairs=direct.pairs)
        packed.collect(
            "A", encode_reports_packed(values, params, direct.pairs[0], rng=11)
        )
        assert np.array_equal(direct.to_partial().arrays["stream:A:raw"],
                              packed.to_partial().arrays["stream:A:raw"])
        assert direct.ledger.charges == packed.ledger.charges
        assert (
            direct.to_partial().counters["stream:A:uplink_bits"]
            == packed.to_partial().counters["stream:A:uplink_bits"]
        )

    def test_codes_are_validated(self):
        params = SketchParams(k=2, m=8, epsilon=1.0)
        assert packed_report_dtype(2, 8) == np.dtype("<u1")
        assert packed_report_dtype(18, 1024) == np.dtype("<u2")
        assert packed_report_dtype(200, 256) == np.dtype("<u4")
        PackedReports(np.array([0, 31], dtype=np.uint8), params)
        with pytest.raises(ParameterError, match="outside"):
            PackedReports(np.array([32], dtype=np.uint8), params)
        with pytest.raises(ParameterError, match="unsigned"):
            PackedReports(np.array([1], dtype=np.int64), params)

    def test_out_of_domain_values_raise_before_drawing(self):
        params = SketchParams(k=2, m=8, epsilon=1.0)
        with pytest.raises(DomainError):
            encode_reports_packed([3, -1], params, HashPairs(2, 8, seed=0), rng=1)
