"""Client side of LDPJoinSketch — Algorithm 1 of the paper.

Given a private join value ``d``, the client

1. samples a row ``j ~ U[k]`` and a column ``l ~ U[m]``;
2. encodes ``d`` as the one-hot signed vector ``v`` with
   ``v[h_j(d)] = xi_j(d)``;
3. Hadamard-transforms: ``w = v @ H_m`` — because ``v`` has a single
   non-zero of magnitude 1, ``w[l] = xi_j(d) * H_m[h_j(d), l]`` in O(1);
4. perturbs the sampled coordinate with the binary sign channel:
   ``y = b * w[l]`` with ``Pr[b = -1] = 1/(e^eps + 1)``;
5. transmits ``(y, j, l)``.

:func:`encode_report` is the literal scalar transcription (kept for
readability and used by the privacy audits); :func:`encode_reports` is the
vectorised batch used for million-user simulations — tests pin the two to
identical outputs under identical randomness.  :func:`encode_reports_into`
is the fused encode→accumulate fast path: it perturbs and folds reports
chunk by chunk directly into a ``(k, m)`` integer accumulator, never
materialising the O(n) report arrays — tests pin it bit-for-bit against
``encode_reports`` + scatter-add under identical RNG draws.
:func:`encode_reports_packed` runs the same draws but returns the reports
as :class:`PackedReports` — one small unsigned code per report — so
folding them later reproduces the :func:`encode_reports_into`
accumulator bit for bit.  :class:`CoinReports` is the *public-coin* form
the online service logs and replicates: the batch's cells come from one
public 64-bit coin, so only the one-bit sign of each report is stored.

Two *trial-axis* kernels extend the fused path for repeated-trial sweeps:

* :func:`encode_reports_trials_into` simulates ``T`` independent trials in
  one pass over the value array — per chunk, every trial's hashes are
  evaluated in a single gathered Horner pass and all ``T`` accumulators
  are filled by one scatter.  Each trial draws from its own generator in
  exactly the :func:`encode_reports_into` order, so the ``(T, k, m)``
  result is bit-for-bit ``T`` serial runs under the same seeds.
* :func:`encode_reports_grouped_into` is the opt-in *trial-group* mode:
  one sampled/hashed pass is shared by a whole (trial × epsilon) grid
  cell block — only the flip channel is drawn per trial and thresholded
  per epsilon (common random numbers).  Each cell's marginal distribution
  is exactly a single run's; only cross-cell correlations change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from ..accumulate import scatter_add_signed_units
from ..backend import resolve_backend, use_backend
from ..errors import DomainError, ParameterError
from ..hashing import HashPairs, stack_pair_coefficients
from ..hashing.kwise import MERSENNE_PRIME_31
from ..rng import RandomState, ensure_rng
from ..transform.hadamard import hadamard_entry, sample_hadamard_parities
from ..validation import as_value_array
from .params import SketchParams

__all__ = [
    "ReportBatch",
    "PackedReports",
    "CoinReports",
    "packed_report_dtype",
    "encode_report",
    "encode_reports",
    "encode_reports_into",
    "encode_reports_packed",
    "encode_reports_trials_into",
    "encode_reports_grouped_into",
    "DEFAULT_CHUNK_SIZE",
]

#: Default client chunk of the fused encode→accumulate path.  Large enough
#: that per-chunk NumPy dispatch overhead is negligible, small enough that
#: the transient per-chunk arrays (~100 bytes per client across the
#: pipeline) plus the ``(k, m)`` accumulator stay L2-resident — a 1M-client
#: sweep measured 8192 ~20% faster than 64k chunks and ~40% faster than
#: 512k chunks.
DEFAULT_CHUNK_SIZE = 8_192


@dataclass(frozen=True)
class ReportBatch:
    """The wire format of a batch of client reports.

    Attributes
    ----------
    ys:
        Perturbed one-bit payloads in ``{-1, +1}`` (stored as ``int8``).
    rows:
        Sampled row indices ``j`` in ``[0, k)`` (stored as ``int32``).
    cols:
        Sampled column indices ``l`` in ``[0, m)`` (stored as ``int32``).
    params:
        Protocol parameters the reports were generated under.

    The storage dtypes are deliberately narrow — a report is one sign bit
    plus two small indices, so ``int8``/``int32`` shrink an in-memory
    million-report batch from 24 MB to 9 MB without changing
    :attr:`total_bits` (the *protocol* communication cost, which depends
    only on ``params.report_bits``).
    """

    ys: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    params: SketchParams

    def __post_init__(self) -> None:
        ys = np.asarray(self.ys, dtype=np.int64)
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        if not (ys.shape == rows.shape == cols.shape) or ys.ndim != 1:
            raise ParameterError("ys, rows and cols must be equal-length 1-D arrays")
        if ys.size:
            if not np.all(np.abs(ys) == 1):
                raise ParameterError("ys must contain only -1/+1")
            if rows.min() < 0 or rows.max() >= self.params.k:
                raise ParameterError(f"rows must lie in [0, {self.params.k})")
            if cols.min() < 0 or cols.max() >= self.params.m:
                raise ParameterError(f"cols must lie in [0, {self.params.m})")
        # Validated values all fit the narrow wire dtypes.
        object.__setattr__(self, "ys", ys.astype(np.int8))
        object.__setattr__(self, "rows", rows.astype(np.int32))
        object.__setattr__(self, "cols", cols.astype(np.int32))

    def __len__(self) -> int:
        return int(self.ys.size)

    @property
    def total_bits(self) -> int:
        """Total communication cost of the batch in bits."""
        return len(self) * self.params.report_bits

    def concat(self, other: "ReportBatch") -> "ReportBatch":
        """Concatenate two batches generated under the same parameters."""
        if self.params != other.params:
            raise ParameterError("cannot concatenate reports with different parameters")
        return ReportBatch(
            np.concatenate([self.ys, other.ys]),
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.cols, other.cols]),
            self.params,
        )


def packed_report_dtype(k: int, m: int) -> np.dtype:
    """The narrowest little-endian unsigned dtype of a packed report code.

    Codes lie in ``[0, 2·k·m)`` (see :class:`PackedReports`), so
    ``k = 18, m = 1024`` packs into ``uint16`` — two bytes per report.
    """
    top = 2 * int(k) * int(m) - 1
    for name in ("<u1", "<u2", "<u4"):
        if top <= np.iinfo(name).max:
            return np.dtype(name)
    return np.dtype("<u8")


@dataclass(frozen=True)
class PackedReports:
    """A batch of Algorithm 1 reports, one unsigned code per report.

    Report ``(y, j, l)`` is stored as ``2·(j·m + l) + [y > 0]``: the flat
    sketch cell shifted left by one, with the sign in the low bit.  That
    is ``1 + ⌈log₂(k·m)⌉`` bits of information in the narrowest
    :func:`packed_report_dtype` — the same per-report content as a
    :class:`ReportBatch`, but already in the layout the accumulator
    scatters into, so a fold is one shift, one mask and one
    ``bincount_accumulate``.

    Construction checks the dtype (1-D, unsigned) and that every code
    lies in ``[0, 2·k·m)`` — a code past the sketch is refused before
    it can reach an accumulator.
    """

    codes: np.ndarray
    params: SketchParams

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.dtype.kind != "u":
            raise ParameterError(
                f"packed report codes must be a 1-D unsigned integer array, "
                f"got {codes.dtype} shaped {codes.shape}"
            )
        limit = 2 * self.params.k * self.params.m
        if codes.size and int(codes.max()) >= limit:
            raise ParameterError(
                f"packed report code {int(codes.max())} lies outside "
                f"[0, {limit}) for k={self.params.k}, m={self.params.m}"
            )
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return int(self.codes.size)

    def cells_and_signs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cells, ys)``: int64 flat cells ``j·m + l`` and ``±1`` payloads."""
        codes = self.codes.astype(np.int64)
        return codes >> 1, 2 * (codes & 1) - 1


#: Public coins are 64-bit unsigned integers: ``0 <= coin < COIN_LIMIT``.
COIN_LIMIT = 1 << 64


@dataclass(frozen=True, eq=False)
class CoinReports:
    """A batch of *public-coin* Algorithm 1 reports: one coin, one bit each.

    In Algorithm 1 only the sign ``y`` depends on the client's value; the
    sampled cell ``(j, l)`` is uniform and independent of it.  A
    public-coin batch therefore draws its cells from one public 64-bit
    ``coin`` (the rule is :func:`_coin_cells`: uniform on ``[0, k·m)``,
    with ``j = cell // m`` and ``l = cell % m``, the same distribution as
    independent uniform ``j`` and ``l``) and stores per report only the
    bit ``[y > 0]``.  Publishing the cells costs no privacy: they carry
    no information about the value, and Algorithm 1's ε guarantee is
    over ``y`` given ``(j, l)``.  The flips are drawn from a *separate*
    generator that :meth:`encode` takes as its own argument, so the
    coin cannot regenerate them.

    ``bits`` is the body: ``np.packbits`` of the sign bits (big-endian
    bit order), exactly ``⌈count/8⌉`` bytes with zero padding bits.
    Construction validates the coin and the body (:meth:`check_body`).
    """

    coin: int
    count: int
    bits: np.ndarray
    params: SketchParams

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "bits", self.check_body(self.coin, self.count, self.bits)
        )
        object.__setattr__(self, "coin", int(self.coin))
        object.__setattr__(self, "count", int(self.count))

    @staticmethod
    def check_body(coin, count, body) -> np.ndarray:
        """Validate a coin, a report count and a sign-bit body.

        Returns the body as a ``uint8`` array (a view when ``body`` is a
        byte buffer).  Raises :class:`~repro.errors.ParameterError`
        unless ``coin`` is an integer in ``[0, 2**64)``, ``count`` a
        non-negative integer, and ``body`` exactly ``⌈count/8⌉`` bytes
        whose padding bits are zero.
        """
        _check_coin(coin)
        if (
            isinstance(count, bool)
            or not isinstance(count, (int, np.integer))
            or count < 0
        ):
            raise ParameterError(
                f"report count must be a non-negative integer, got {count!r}"
            )
        bits = (
            body if isinstance(body, np.ndarray) else np.frombuffer(body, dtype=np.uint8)
        )
        if bits.ndim != 1 or bits.dtype != np.uint8:
            raise ParameterError(
                f"sign bits must be a 1-D uint8 array, got {bits.dtype} shaped "
                f"{bits.shape}"
            )
        if bits.size != (int(count) + 7) // 8:
            raise ParameterError(
                f"{bits.size}-byte sign body does not hold {int(count)} reports "
                f"(needs {(int(count) + 7) // 8})"
            )
        spare = -int(count) % 8
        if spare and int(bits[-1]) & ((1 << spare) - 1):
            raise ParameterError("sign body has nonzero padding bits")
        return bits

    @classmethod
    def encode(
        cls,
        values: Iterable[int],
        params: SketchParams,
        pairs: HashPairs,
        coin: int,
        flip_rng: RandomState,
        *,
        backend=None,
    ) -> "CoinReports":
        """Algorithm 1 over a batch of clients under the public ``coin``.

        The cells come from ``coin`` alone (see the class docstring); the
        flips are ``flip_rng.random(n) < flip_probability``, one uniform
        per report in order, from ``flip_rng`` alone.  The unperturbed
        signs are hashed in :data:`DEFAULT_CHUNK_SIZE` chunks on the
        backend's fused front half.  Out-of-domain values raise
        :class:`~repro.errors.DomainError` before anything is drawn.  The
        returned batch already holds its cells and signs, so folding it
        right away draws nothing again.
        """
        _check_pairs(params, pairs)
        arr = as_value_array(values)
        if arr.size and (arr.min() < 0 or arr.max() >= MERSENNE_PRIME_31):
            raise DomainError("hash inputs must lie in [0, 2**31 - 1)")
        n = int(arr.size)
        cells = _coin_cells(_check_coin(coin), n, params.k * params.m)
        flips = ensure_rng(flip_rng).random(n) < params.flip_probability
        positive = np.empty(n, dtype=bool)
        fused = _fused_kernel_inputs(pairs, backend, True)
        with use_backend(backend):
            for start in range(0, n, DEFAULT_CHUNK_SIZE):
                stop = start + DEFAULT_CHUNK_SIZE
                rows, cols = np.divmod(cells[start:stop], params.m)
                _, base_signs = _base_signs(
                    arr[start:stop], rows, cols, pairs, fused, params.m
                )
                # y = base sign * (1 - 2 * flip): positive exactly when the
                # channel kept a +1 or flipped a -1.
                positive[start:stop] = (base_signs > 0) ^ flips[start:stop]
        reports = cls(int(coin), n, np.packbits(positive), params)
        reports._seed_view(cells, 2 * positive.astype(np.int64) - 1)
        return reports

    def __len__(self) -> int:
        return self.count

    def body(self) -> bytes:
        """The sign bits as logged: ``⌈count/8⌉`` bytes, zero padding."""
        return self.bits.tobytes()

    def cells_and_signs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cells, ys)``: int64 flat cells ``j·m + l`` and ``±1`` payloads.

        Derived once per batch — cells from the coin, signs from the
        body — and reused by every later fold of the same object.
        """
        return self._view

    @cached_property
    def _view(self) -> Tuple[np.ndarray, np.ndarray]:
        cells = _coin_cells(self.coin, self.count, self.params.k * self.params.m)
        signs = np.unpackbits(self.bits, count=self.count).astype(np.int64)
        return _read_only(cells), _read_only(2 * signs - 1)

    def _seed_view(self, cells: np.ndarray, ys: np.ndarray) -> None:
        """Keep the cells and signs the encoder just computed."""
        self.__dict__["_view"] = (_read_only(cells), _read_only(ys))


def _check_coin(coin) -> int:
    """``coin`` as an int; :class:`ParameterError` unless in ``[0, 2**64)``."""
    if isinstance(coin, bool) or not isinstance(coin, (int, np.integer)):
        raise ParameterError(f"coin must be an integer, got {coin!r}")
    if not 0 <= int(coin) < COIN_LIMIT:
        raise ParameterError(f"coin {int(coin)} lies outside [0, 2**64)")
    return int(coin)


def _coin_cells(coin: int, count: int, size: int) -> np.ndarray:
    """The ``count`` flat cells of public coin ``coin``, uniform on ``[0, size)``.

    This rule is the v4 log format, so it is written out here rather
    than left to a NumPy ``Generator`` method (whose streams NumPy may
    change between releases): take the raw 64-bit words of
    ``numpy.random.PCG64(coin)`` (a bit-generator stream NumPy keeps
    stable) in order; a word ``w >= 2**64 - 2**64 % size`` is rejected
    and replaced by the stream's next word, rejected positions refilled
    in ascending order; each kept word gives the cell ``w % size``.  The
    rejection makes every cell exactly equally likely; it happens with
    probability below ``size / 2**64`` per word.
    """
    return _uniform_words(np.random.PCG64(coin), count, size)


def _uniform_words(bit_generator, count: int, size: int) -> np.ndarray:
    """:func:`_coin_cells` over any object with ``random_raw(n) -> uint64``."""
    words = np.asarray(bit_generator.random_raw(count), dtype=np.uint64)
    spare = COIN_LIMIT % size
    limit = np.uint64(COIN_LIMIT - spare) if spare else None
    # The max is a cheap pre-check: rejections almost never happen.
    if limit is not None and words.max(initial=0) >= limit:
        redraw = np.flatnonzero(words >= limit)
        while redraw.size:
            words[redraw] = bit_generator.random_raw(redraw.size)
            redraw = redraw[words[redraw] >= limit]
    # Every cell is below size <= 2**63, so the int64 view is exact.
    return np.remainder(words, np.uint64(size), out=words).view(np.int64)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def encode_report(
    value: int,
    params: SketchParams,
    pairs: HashPairs,
    rng: RandomState = None,
) -> Tuple[int, int, int]:
    """Algorithm 1 for a single client; returns ``(y, j, l)``.

    Literal transcription of the pseudo-code (including materialising the
    one-hot vector and the full transform); useful for audits and as the
    reference the vectorised path is tested against.
    """
    _check_pairs(params, pairs)
    generator = ensure_rng(rng)
    j = int(generator.integers(0, params.k))
    l = int(generator.integers(0, params.m))
    v = np.zeros(params.m, dtype=np.float64)
    bucket = int(pairs.bucket(j, np.asarray([value]))[0])
    sign = int(pairs.sign(j, np.asarray([value]))[0])
    v[bucket] = sign
    # w = v @ H_m; only entry l is needed and v is one-hot:
    w_l = v[bucket] * hadamard_entry(bucket, l, params.m)
    b = -1 if generator.random() < params.flip_probability else 1
    y = int(b * w_l)
    return y, j, l


def encode_reports(
    values: Iterable[int],
    params: SketchParams,
    pairs: HashPairs,
    rng: RandomState = None,
) -> ReportBatch:
    """Vectorised Algorithm 1 over a batch of clients.

    Each element of ``values`` is one independent client; all sampling
    (rows, columns, perturbation signs) is drawn from ``rng``.
    """
    _check_pairs(params, pairs)
    arr = as_value_array(values)
    generator = ensure_rng(rng)
    ys, rows, cols = _encode_chunk(arr, params, pairs, generator)
    return ReportBatch(ys, rows, cols, params)


def encode_reports_into(
    values: Iterable[int],
    params: SketchParams,
    pairs: HashPairs,
    out: np.ndarray,
    rng: RandomState = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    backend=None,
) -> int:
    """Fused Algorithm 1 + accumulation: encode clients straight into ``out``.

    Simulates the clients in chunks of ``chunk_size`` and folds each
    chunk's ``(y, j, l)`` reports into the ``(k, m)`` *pre-transform
    integer* accumulator ``out`` (``out[j, l] += y``) without ever holding
    the O(n) report arrays — peak transient memory is O(chunk_size)
    regardless of the population size.

    The RNG draw order within each chunk matches :func:`encode_reports`
    exactly, so for any chunking the result is bit-for-bit identical to
    encoding the same chunks with :func:`encode_reports` (sharing the
    generator) and scatter-adding each batch; with ``chunk_size >= n`` it
    is bit-for-bit the single-batch path.

    Parameters
    ----------
    values:
        One private join value per client.
    params, pairs:
        Protocol parameters and published hash pairs (as in
        :func:`encode_reports`).
    out:
        Integer accumulator of shape ``(k, m)``; modified in place.
    rng:
        Randomness source for all sampling.
    chunk_size:
        Number of clients encoded per pass.
    backend:
        Compute backend override (name, instance or ``None`` for the
        process-wide default); hashing, perturbation and accumulation of
        every chunk run on its fused kernel.

    Returns
    -------
    int
        Number of reports folded into ``out``.
    """
    _check_pairs(params, pairs)
    if not isinstance(out, np.ndarray) or not np.issubdtype(out.dtype, np.integer):
        raise ParameterError("out must be an integer ndarray accumulator")
    if out.shape != (params.k, params.m):
        raise ParameterError(
            f"out shaped {out.shape} does not match ({params.k}, {params.m})"
        )
    if not isinstance(chunk_size, (int, np.integer)) or chunk_size <= 0:
        raise ParameterError(f"chunk_size must be a positive int, got {chunk_size!r}")
    arr = as_value_array(values)
    # Validate the whole batch up front: a mid-stream failure must not
    # leave ``out`` holding the earlier chunks' reports (the caller's
    # accumulator would be silently corrupted but its bookkeeping not).
    if arr.size and (arr.min() < 0 or arr.max() >= MERSENNE_PRIME_31):
        raise DomainError("hash inputs must lie in [0, 2**31 - 1)")
    generator = ensure_rng(rng)
    n = arr.size
    fused = _fused_kernel_inputs(pairs, backend, out.flags.c_contiguous)
    # The context pin covers the fallback path too: without it an
    # explicit ``backend=`` would be honoured by the fused kernel but
    # silently ignored by the generic encode + scatter dispatches below.
    with use_backend(backend):
        for start in range(0, n, int(chunk_size)):
            chunk = arr[start : start + int(chunk_size)]
            if fused is None:
                ys, rows, cols = _encode_chunk(
                    chunk, params, pairs, generator, domain_checked=True
                )
                scatter_add_signed_units(out, (rows, cols), ys)
                continue
            compute, bucket_coeffs, sign_coeffs = fused
            c = chunk.size
            # Draw order is the wire contract (rows, cols, flip uniforms)
            # — the hash evaluation between the draws consumes no
            # randomness, so hoisting the flip draw keeps the stream
            # identical to :func:`encode_reports`.
            rows = generator.integers(0, params.k, size=c)
            cols = generator.integers(0, params.m, size=c)
            flips = generator.random(c) < params.flip_probability
            compute.fused_encode_accumulate(
                bucket_coeffs, sign_coeffs, chunk.astype(np.uint64), rows, cols,
                flips, params.m, out,
            )
    return int(n)


def encode_reports_packed(
    values: Iterable[int],
    params: SketchParams,
    pairs: HashPairs,
    rng: RandomState = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    backend=None,
) -> PackedReports:
    """Algorithm 1 over a batch of clients, returned as :class:`PackedReports`.

    Per ``chunk_size`` chunk the generator draws rows, columns and flip
    uniforms in exactly the :func:`encode_reports_into` order, so folding
    the returned codes into a zero accumulator reproduces that call's
    accumulator bit for bit (same generator, same ``chunk_size``).  The
    hashing runs in :func:`_base_signs`; the flip bits are applied here.
    Out-of-domain values raise :class:`~repro.errors.DomainError` before
    anything is drawn.
    """
    _check_pairs(params, pairs)
    if not isinstance(chunk_size, (int, np.integer)) or chunk_size <= 0:
        raise ParameterError(f"chunk_size must be a positive int, got {chunk_size!r}")
    arr = as_value_array(values)
    if arr.size and (arr.min() < 0 or arr.max() >= MERSENNE_PRIME_31):
        raise DomainError("hash inputs must lie in [0, 2**31 - 1)")
    generator = ensure_rng(rng)
    codes = np.empty(arr.size, dtype=packed_report_dtype(params.k, params.m))
    fused = _fused_kernel_inputs(pairs, backend, True)
    with use_backend(backend):
        for start in range(0, arr.size, int(chunk_size)):
            chunk = arr[start : start + int(chunk_size)]
            c = chunk.size
            rows = generator.integers(0, params.k, size=c)
            cols = generator.integers(0, params.m, size=c)
            flips = generator.random(c) < params.flip_probability
            cell, base_signs = _base_signs(chunk, rows, cols, pairs, fused, params.m)
            # y = base sign * (1 - 2 * flip): positive exactly when the
            # unperturbed sign is +1 and the channel kept it, or it is -1
            # and the channel flipped it.
            positive = (base_signs > 0) ^ flips
            codes[start : start + c] = (cell << 1) | positive
    return PackedReports(codes, params)


def _fused_kernel_inputs(pairs: HashPairs, backend, contiguous: bool):
    """Resolve the backend + stacked coefficients of a fused encode call.

    Returns ``None`` when the fused kernel cannot run — heterogeneous
    hash degrees (hand-built pairs) or a non-contiguous accumulator —
    in which case callers fall back to the generic encode + scatter
    path (identical output, it merely re-derives the hashes per array
    instead of per element).
    """
    if not contiguous:
        return None
    bucket_coeffs = pairs._bucket_coeffs
    sign_coeffs = pairs._sign_coeffs
    if bucket_coeffs is None or sign_coeffs is None:
        return None
    return resolve_backend(backend), bucket_coeffs, sign_coeffs


def _base_signs(
    chunk: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    pairs: HashPairs,
    fused,
    m: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat cells ``j·m + l`` and unperturbed signs of Algorithm 1 reports.

    The sign of report ``i`` before the flip channel is
    ``xi_j(d) · H_m[h_j(d), l]`` (steps 2–3 of Algorithm 1).  ``fused``
    is :func:`_fused_kernel_inputs`'s result: the backend's fused front
    half when available, else the generic hash path (identical output).
    Both arrays are int64; the signs are ``±1``.
    """
    if fused is None:
        buckets, sign_parity = pairs.bucket_and_sign_parity_rows(
            rows, chunk, domain_checked=True
        )
        negative = sign_parity ^ sample_hadamard_parities(buckets, cols, m)
        return rows * np.int64(m) + cols, 1 - 2 * negative.astype(np.int64)
    compute, bucket_coeffs, sign_coeffs = fused
    return compute.fused_encode_shared_pass(
        bucket_coeffs, sign_coeffs, chunk.astype(np.uint64), rows, cols, m
    )


def encode_reports_trials_into(
    values: Iterable[int],
    params: SketchParams,
    pairs: Union[HashPairs, Sequence[HashPairs]],
    out: np.ndarray,
    rngs: Sequence[RandomState],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    backend=None,
) -> int:
    """Fused Algorithm 1 for ``T`` independent trials in one value pass.

    Simulates the same client population ``T`` times — once per trial —
    folding trial ``t``'s reports into ``out[t]``.  Every chunk of the
    value array is loaded, range-checked and converted exactly once; the
    ``T`` trials' bucket/sign hashes are evaluated in a single gathered
    Horner pass over ``T * chunk`` elements (one coefficient matrix
    stacked per trial group, built once per call), and all ``T``
    accumulators are filled by one scatter.

    Each trial draws ``rows``, ``cols`` and flip uniforms from its *own*
    generator in exactly the order :func:`encode_reports_into` uses, so
    ``out[t]`` is bit-for-bit the accumulator of
    ``encode_reports_into(values, params, pairs[t], out_t, rngs[t],
    chunk_size)`` — the trial axis changes wall-clock, never bits.

    Parameters
    ----------
    values:
        One private join value per client (shared by every trial).
    params:
        Protocol parameters, shared by every trial.
    pairs:
        Either one :class:`HashPairs` shared by all trials or a sequence
        of ``T`` per-trial pairs (the independent-trials setting of the
        experiment harness).
    out:
        Integer accumulator of shape ``(T, k, m)``; modified in place.
    rngs:
        ``T`` per-trial randomness sources (seed or generator each).
    chunk_size:
        Number of clients encoded per pass (per trial).

    Returns
    -------
    int
        Number of clients encoded (per trial).
    """
    pairs_list = [pairs] if isinstance(pairs, HashPairs) else list(pairs)
    generators = [ensure_rng(r) for r in rngs]
    trials = len(generators)
    if trials == 0:
        raise ParameterError("need at least one trial generator")
    if len(pairs_list) == 1:
        pairs_list = pairs_list * trials
    if len(pairs_list) != trials:
        raise ParameterError(
            f"got {len(pairs_list)} hash pairs for {trials} trials; pass one "
            f"shared HashPairs or exactly one per trial"
        )
    for p in pairs_list:
        _check_pairs(params, p)
    if not isinstance(out, np.ndarray) or not np.issubdtype(out.dtype, np.integer):
        raise ParameterError("out must be an integer ndarray accumulator")
    if out.shape != (trials, params.k, params.m):
        raise ParameterError(
            f"out shaped {out.shape} does not match ({trials}, {params.k}, {params.m})"
        )
    if not isinstance(chunk_size, (int, np.integer)) or chunk_size <= 0:
        raise ParameterError(f"chunk_size must be a positive int, got {chunk_size!r}")
    arr = as_value_array(values)
    if arr.size and (arr.min() < 0 or arr.max() >= MERSENNE_PRIME_31):
        raise DomainError("hash inputs must lie in [0, 2**31 - 1)")
    stacked = stack_pair_coefficients(pairs_list)
    if stacked is None or not out.flags.c_contiguous:
        # Heterogeneous hash degrees (hand-built pairs): fall back to the
        # serial kernel per trial — each generator still sees its own
        # draws in the contract order, so the result is unchanged.
        for t in range(trials):
            encode_reports_into(
                arr, params, pairs_list[t], out[t], generators[t],
                chunk_size=chunk_size, backend=backend,
            )
        return int(arr.size)
    bucket_coeffs, sign_coeffs = stacked
    compute = resolve_backend(backend)
    n = arr.size
    for start in range(0, n, int(chunk_size)):
        chunk = arr[start : start + int(chunk_size)]
        c = chunk.size
        rows = np.empty((trials, c), dtype=np.int64)
        cols = np.empty((trials, c), dtype=np.int64)
        for t, generator in enumerate(generators):
            rows[t] = generator.integers(0, params.k, size=c)
            cols[t] = generator.integers(0, params.m, size=c)
        flips = np.empty((trials, c), dtype=bool)
        for t, generator in enumerate(generators):
            flips[t] = generator.random(c) < params.flip_probability
        # All T trials' hashes ride one gathered kernel call (trial t's
        # polynomials sit at stacked columns t*k + j); each trial's
        # reports land in its own (k, m) accumulator.
        compute.fused_encode_accumulate_trials(
            bucket_coeffs, sign_coeffs, chunk.astype(np.uint64), rows, cols,
            flips, params.m, out,
        )
    return int(n)


def encode_reports_grouped_into(
    values: Iterable[int],
    pairs: HashPairs,
    epsilons: Sequence[float],
    out: np.ndarray,
    sample_rng: RandomState,
    trial_rngs: Sequence[RandomState],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    backend=None,
) -> int:
    """Trial-group kernel: hash/sample once, perturb per (trial, epsilon).

    The opt-in fast mode of the sweep engine.  One pass draws the
    ``(j, l)`` samples and evaluates the bucket/sign/Hadamard parities of
    every client (from ``sample_rng``); each of the ``T`` trials then
    draws one uniform per client (from its own generator) and every
    epsilon thresholds those *same* uniforms at its flip probability —
    common random numbers across the epsilon axis.  ``out[t, e]``
    accumulates the grid cell of trial ``t`` under ``epsilons[e]``.

    Marginally each ``out[t, e]`` is distributed exactly like a single
    :func:`encode_reports_into` run (the shared draws are marginalised by
    drawing them); what changes is only the *cross-cell* correlation —
    trials of one group share sampling noise, epsilons of one trial share
    perturbation uniforms.  Means stay unbiased per cell; cross-trial
    averages no longer shrink the shared sampling noise, which is the
    price of hashing once.  The default sweep mode therefore remains the
    independent-trials path.

    Parameters
    ----------
    values:
        One private join value per client (shared by the whole group).
    pairs:
        The group's published hash pairs (shape ``(k, m)``).
    epsilons:
        ``E`` privacy budgets, one accumulator column each.
    out:
        C-contiguous integer accumulator of shape ``(T, E, k, m)``.
    sample_rng:
        Randomness of the shared row/column sampling.
    trial_rngs:
        ``T`` per-trial randomness sources for the flip uniforms.
    chunk_size:
        Number of clients encoded per pass.

    Returns
    -------
    int
        Number of clients encoded (per grid cell).
    """
    from ..privacy.response import flip_probability

    sampler = ensure_rng(sample_rng)
    generators = [ensure_rng(r) for r in trial_rngs]
    trials = len(generators)
    if trials == 0:
        raise ParameterError("need at least one trial generator")
    probs = np.asarray([flip_probability(e) for e in epsilons], dtype=np.float64)
    if probs.size == 0:
        raise ParameterError("need at least one epsilon")
    k, m = pairs.k, pairs.m
    if not isinstance(out, np.ndarray) or not np.issubdtype(out.dtype, np.integer):
        raise ParameterError("out must be an integer ndarray accumulator")
    if out.shape != (trials, probs.size, k, m):
        raise ParameterError(
            f"out shaped {out.shape} does not match "
            f"({trials}, {probs.size}, {k}, {m})"
        )
    if not out.flags.c_contiguous:
        raise ParameterError("out must be C-contiguous (one flat scatter per chunk)")
    if not isinstance(chunk_size, (int, np.integer)) or chunk_size <= 0:
        raise ParameterError(f"chunk_size must be a positive int, got {chunk_size!r}")
    arr = as_value_array(values)
    if arr.size and (arr.min() < 0 or arr.max() >= MERSENNE_PRIME_31):
        raise DomainError("hash inputs must lie in [0, 2**31 - 1)")
    num_eps = int(probs.size)
    # Factorisation that makes extra grid cells nearly free: with
    # ``s`` the unperturbed report sign and ``f = [u < p_eps]`` the flip
    # indicator, cell ``(t, e)`` accumulates ``sum s * (1 - 2 f)``
    # = ``S - 2 * F[t, e]`` where ``S = sum s`` is *shared by every cell*
    # and ``F[t, e] = sum_{u_t < p_e} s``.  Because the flip thresholds
    # are nested, an element with uniform ``u`` contributes to exactly
    # the epsilons whose ``p > u`` — so per trial one ``searchsorted``
    # bins each client into its threshold band and only the ~``p_max``
    # fraction that flips anywhere is scattered at all.  Integer sums
    # throughout: bit-identical to materialising every ``(t, e)`` report.
    order = np.argsort(probs, kind="stable")
    p_sorted = probs[order]
    shared = np.zeros(k * m, dtype=np.int64)
    bands = np.zeros((trials, num_eps, k * m), dtype=np.int64)
    fused = _fused_kernel_inputs(pairs, backend, True)
    n = arr.size
    # The context pin covers the hand-built-pairs fallback and the
    # scatter dispatches, which would otherwise follow the process-wide
    # default rather than an explicit ``backend=``.
    with use_backend(backend):
        for start in range(0, n, int(chunk_size)):
            chunk = arr[start : start + int(chunk_size)]
            c = chunk.size
            rows = sampler.integers(0, k, size=c)
            cols = sampler.integers(0, m, size=c)
            cell, base_signs = _base_signs(chunk, rows, cols, pairs, fused, m)
            scatter_add_signed_units(shared, (cell,), base_signs)
            for t, generator in enumerate(generators):
                band = np.searchsorted(p_sorted, generator.random(c), side="right")
                flipped = band < num_eps
                if np.any(flipped):
                    idx = band[flipped] * (k * m) + cell[flipped]
                    scatter_add_signed_units(
                        bands[t].reshape(-1), (idx,), base_signs[flipped]
                    )
    # F accumulates over ascending thresholds (band j flips every epsilon
    # with sorted position >= j); undo the sort when writing out.
    flipped_sums = np.cumsum(bands, axis=1)
    out_flat = out.reshape(trials, num_eps, k * m)
    for e_sorted, e_orig in enumerate(order):
        out_flat[:, e_orig, :] += shared[None, :] - 2 * flipped_sums[:, e_sorted, :]
    return int(n)


def _encode_chunk(
    arr: np.ndarray,
    params: SketchParams,
    pairs: HashPairs,
    generator: np.random.Generator,
    *,
    domain_checked: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One vectorised Algorithm 1 pass; the draw order is the wire contract.

    Draws ``rows``, then ``cols``, then the flip uniforms — both
    :func:`encode_reports` and every chunk of :func:`encode_reports_into`
    go through here, which is what keeps the two paths bit-for-bit
    equivalent under a shared generator.
    """
    n = arr.size
    rows = generator.integers(0, params.k, size=n)
    cols = generator.integers(0, params.m, size=n)
    buckets, sign_parity = pairs.bucket_and_sign_parity_rows(
        rows, arr, domain_checked=domain_checked
    )
    hadamard_parity = sample_hadamard_parities(buckets, cols, params.m)
    flips = generator.random(n) < params.flip_probability
    # y = xi * H[h, l] * b is a product of three signs; XOR-ing their
    # parity bits computes it in integer passes without ±1 multiplies.
    ys = 1 - 2 * (sign_parity ^ hadamard_parity ^ flips)
    return ys, rows, cols


def _check_pairs(params: SketchParams, pairs: HashPairs) -> None:
    if pairs.k != params.k or pairs.m != params.m:
        raise ParameterError(
            f"hash pairs shaped ({pairs.k}, {pairs.m}) do not match params "
            f"({params.k}, {params.m})"
        )
