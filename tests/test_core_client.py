"""Tests for the LDPJoinSketch client (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.client as client
from repro.api import JoinSession
from repro.core import (
    CoinReports,
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
from repro.transform.hadamard import hadamard_entry


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


class TestCoinReports:
    """Public-coin reports: cells from the coin, flips from their own seed."""

    @staticmethod
    def _base_sign(pairs, value, cell, m):
        """The unperturbed report sign xi_j(d) * H[h_j(d), l] at ``cell``."""
        j, l = divmod(int(cell), m)
        bucket = int(pairs.bucket(j, np.array([value]))[0])
        sign = int(pairs.sign(j, np.array([value]))[0])
        return sign * hadamard_entry(bucket, l, m)

    def test_encoder_ships_the_algorithm_1_channel(self):
        """Pinned-seed audit of the shipped encoder at k=2, m=4, eps=1.

        One fixed coin fixes the cell; over many flip seeds, an input whose
        unperturbed sign there is +1 reports y=+1 at rate e^eps/(e^eps+1)
        and one whose sign is -1 at 1/(e^eps+1) (chi-square, 1 dof,
        alpha=0.001).  The likelihood ratio of either output stays within
        e^eps times (1 + tol), tol = 4.5 standard errors of the ratio.
        """
        params = SketchParams(k=2, m=4, epsilon=1.0)
        pairs = HashPairs(2, 4, seed=5)
        coin = 2024
        (cell,) = CoinReports.encode([0], params, pairs, coin, 0).cells_and_signs()[0]
        signs = {v: self._base_sign(pairs, v, cell, 4) for v in range(64)}
        plus = next(v for v in signs if signs[v] == 1)
        minus = next(v for v in signs if signs[v] == -1)
        trials = 6000
        e = np.exp(params.epsilon)
        keep = e / (e + 1)
        rates = {}
        for value, expected in ((plus, keep), (minus, 1 - keep)):
            ys = np.array([
                CoinReports.encode([value], params, pairs, coin, seed)
                .cells_and_signs()[1][0]
                for seed in range(trials)
            ])
            positives = int(np.sum(ys == 1))
            observed = np.array([positives, trials - positives])
            wanted = trials * np.array([expected, 1 - expected])
            assert float(np.sum((observed - wanted) ** 2 / wanted)) < 10.828
            rates[value] = positives / trials
        tol = 4.5 * np.sqrt(
            (1 - keep) / (trials * keep) + keep / (trials * (1 - keep))
        )
        assert rates[plus] / rates[minus] <= e * (1 + tol)
        assert (1 - rates[minus]) / (1 - rates[plus]) <= e * (1 + tol)
        assert rates[plus] / rates[minus] >= e * (1 - tol)

    def test_cells_are_uniform_over_the_sketch(self):
        params = SketchParams(k=2, m=4, epsilon=1.0)
        pairs = HashPairs(2, 4, seed=5)
        cells = np.concatenate([
            CoinReports.encode(np.arange(4), params, pairs, coin, 0).cells_and_signs()[0]
            for coin in range(2000)
        ])
        observed = np.bincount(cells, minlength=8)
        assert observed.size == 8  # every cell lies in [0, k*m)
        wanted = cells.size / 8
        # chi-square, 7 dof, alpha=0.001
        assert float(np.sum((observed - wanted) ** 2 / wanted)) < 24.322

    def test_coin_fixes_the_cells_and_never_the_flips(self):
        params = SketchParams(k=2, m=4, epsilon=1.0)
        pairs = HashPairs(2, 4, seed=5)
        values = np.arange(200) % 13
        one = CoinReports.encode(values, params, pairs, 77, 1)
        two = CoinReports.encode(values, params, pairs, 77, 2)
        assert np.array_equal(one.cells_and_signs()[0], two.cells_and_signs()[0])
        assert not np.array_equal(one.bits, two.bits)

        def flips(coin, seed):
            cells, ys = CoinReports.encode(
                values, params, pairs, coin, seed
            ).cells_and_signs()
            base = [self._base_sign(pairs, v, c, 4) for v, c in zip(values, cells)]
            return ys != np.array(base)

        # Same flip seed under two coins: the same flips, report by report.
        assert np.array_equal(flips(77, 9), flips(78, 9))
        assert flips(77, 9).any()
        # A flip seed equal to the coin draws nothing from the coin's stream.
        assert not np.array_equal(flips(77, 77), flips(77, 9))

    def test_cells_are_the_public_coin_draw(self):
        """The v4 cell rule, pinned: any change to it or to the PCG64
        stream would refold every logged batch differently."""
        params = SketchParams(k=18, m=1024, epsilon=4.0)
        pairs = HashPairs(18, 1024, seed=3)
        coin = 2**64 - 1
        reports = CoinReports.encode(np.arange(3000), params, pairs, coin, 4)
        cells = reports.cells_and_signs()[0]
        assert cells[:12].tolist() == [
            18063, 9049, 14922, 11697, 10012, 4000,
            13939, 2718, 5988, 17923, 5381, 3347,
        ]
        words = np.random.PCG64(coin).random_raw(3000)
        assert np.array_equal(cells, (words % np.uint64(18 * 1024)).astype(np.int64))
        small = CoinReports.encode(
            np.arange(12), SketchParams(2, 4, 1.0), HashPairs(2, 4, seed=5), 2024, 0
        )
        assert small.cells_and_signs()[0].tolist() == [
            0, 1, 1, 4, 2, 0, 7, 6, 4, 0, 0, 4
        ]
        # Rebuilt from the logged coin and body: the same view.
        logged = CoinReports(reports.coin, 3000, reports.body(), params)
        assert np.array_equal(logged.cells_and_signs()[0], cells)
        assert np.array_equal(
            logged.cells_and_signs()[1], reports.cells_and_signs()[1]
        )
        assert len(reports.body()) == 375 and len(reports) == 3000

    def test_rejected_words_are_redrawn_in_order(self):
        class Words:
            def __init__(self, words):
                self.words = list(words)

            def random_raw(self, n):
                taken, self.words = self.words[:n], self.words[n:]
                return np.array(taken, dtype=np.uint64)

        top = 2**64 - 1  # 2**64 % 12 == 4: words >= 2**64 - 4 are rejected
        stream = Words([5, top, 13, top - 3, top - 1, 2**64 - 5, 30])
        cells = client._uniform_words(stream, 4, 12)
        # Positions 1 and 3 take the next two words in order: position 1
        # gets top - 1 (rejected again, so it then takes 30) and position
        # 3 gets 2**64 - 5.
        assert cells.tolist() == [5, 30 % 12, 13 % 12, (2**64 - 5) % 12]
        assert stream.words == []
        # A power-of-two size rejects nothing.
        assert client._uniform_words(Words([top]), 1, 8).tolist() == [7]

    def test_fused_and_generic_paths_agree(self):
        """Both hash paths give Algorithm 1's sign over several chunks."""
        params = SketchParams(k=5, m=64, epsilon=1.5)
        n = 2 * client.DEFAULT_CHUNK_SIZE + 1_000
        values = np.random.default_rng(0).integers(0, 10_000, size=n)
        fused = HashPairs(5, 64, seed=2)
        generic = TestPackedReports._heterogeneous_pairs(params)
        hadamard = hadamard_matrix(64)
        flips = ensure_flips(12, n, params)
        for pairs in (fused, generic):
            cells, ys = CoinReports.encode(
                values, params, pairs, 11, 12
            ).cells_and_signs()
            rows, cols = np.divmod(cells, 64)
            expected = np.empty(n, dtype=np.int64)
            for j in range(5):
                mine = rows == j
                buckets = pairs.bucket(j, values[mine])
                expected[mine] = (
                    pairs.sign(j, values[mine]) * hadamard[buckets, cols[mine]]
                )
            assert np.array_equal(ys, expected * np.where(flips, -1, 1))

    def test_session_folds_coin_reports_and_charges_one_bit(self):
        params = SketchParams(k=4, m=32, epsilon=2.0)
        values = np.random.default_rng(1).integers(0, 500, size=3000)
        session = JoinSession(params, seed=4)
        reports = CoinReports.encode(values, params, session.pairs[0], 5, 6)
        session.collect("A", reports)
        raw = np.zeros(params.k * params.m, dtype=np.int64)
        cells, ys = reports.cells_and_signs()
        np.add.at(raw, cells, ys)
        partial = session.to_partial()
        assert np.array_equal(partial.arrays["stream:A:raw"].reshape(-1), raw)
        assert partial.counters["stream:A:uplink_bits"] == 3000
        assert partial.counters["stream:A:num_reports"] == 3000
        # Raw values still charge the full report: sign, row and column.
        session.collect("B", values, seed=6)
        assert session.to_partial().counters["stream:B:uplink_bits"] == (
            3000 * params.report_bits
        )
        with pytest.raises(Exception, match="do not match"):
            session.collect("A", CoinReports(5, 8, b"\x00", SketchParams(4, 16, 2.0)))

    def test_body_and_coin_are_validated(self):
        params = SketchParams(k=2, m=8, epsilon=1.0)
        CoinReports(0, 9, b"\xff\x80", params)
        CoinReports(2**64 - 1, 0, b"", params)
        with pytest.raises(ParameterError, match="padding"):
            CoinReports(0, 9, b"\xff\xc0", params)
        with pytest.raises(ParameterError, match="does not hold"):
            CoinReports(0, 9, b"\xff", params)
        with pytest.raises(ParameterError, match="outside"):
            CoinReports(2**64, 8, b"\x00", params)
        with pytest.raises(ParameterError, match="integer"):
            CoinReports(True, 8, b"\x00", params)
        with pytest.raises(ParameterError, match="integer"):
            CoinReports.encode([1], params, HashPairs(2, 8, seed=0), 1.0, 2)
        with pytest.raises(DomainError):
            CoinReports.encode([3, -1], params, HashPairs(2, 8, seed=0), 1, 2)


def ensure_flips(seed, n, params):
    """The flip indicators the encoder draws from flip seed ``seed``."""
    return np.random.default_rng(seed).random(n) < params.flip_probability
