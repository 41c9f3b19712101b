"""Streaming, shardable collection sessions — one sketch, many queries.

A :class:`JoinSession` is the server side of one collection period.  It
owns the published hash pairs (one :class:`~repro.hashing.HashPairs` per
join attribute), ingests client reports incrementally per named *stream*
(a table's join column), merges losslessly with sibling shards, and
answers join-size / chain / frequency queries between waves — returning
the unified :class:`EstimateResult` with full cost accounting.

Three properties make this the production path the paper implies:

* **Incremental** — :meth:`collect` folds batches into a *pre-transform
  integer* accumulator (each report contributes ``y in {-1, +1}`` to one
  cell), so ingestion is O(batch) and exact; the debiasing scale and the
  Hadamard inversion are applied only when a query materialises a sketch.
  Simulated cohorts take the fused encode→accumulate fast path
  (:func:`repro.core.client.encode_reports_into`): clients are perturbed
  and folded in ``chunk_size`` slices straight into the accumulator, so
  peak memory stays chunk-bounded no matter how many clients report.
* **Mergeable** — because the accumulator is an integer sum, shards built
  on shared pairs merge associatively and *bit-for-bit* reproduce the
  single-collector state: ``shard_1 + shard_2`` is the same array as one
  session that saw both batches.  :meth:`spawn_shard` / :meth:`merge`
  implement scatter/gather collection.
* **Portable** — :meth:`to_dict` / :meth:`from_dict` round-trip the whole
  session state (pairs included) through plain JSON-compatible data, so
  shards can live in different processes or machines.  Accumulators are
  packed as base64-encoded raw bytes with a dtype/shape header (compact
  and O(1) Python objects per array); payloads written by older versions,
  which shipped nested lists, still load transparently.

Two-way joins need no schema: ``collect("A", ...)``, ``collect("B", ...)``,
``estimate()``.  Multiway chains declare one width per join attribute and
add middle tables with :meth:`collect_pair`; :meth:`estimate_chain`
evaluates Eq. (27).
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..accumulate import scatter_add_signed_units
from ..backend import resolve_backend, use_backend
from ..core.client import (
    DEFAULT_CHUNK_SIZE,
    CoinReports,
    PackedReports,
    ReportBatch,
    encode_reports_into,
)
from ..core.params import SketchParams
from ..core.server import LDPJoinSketch
from ..errors import IncompatibleSketchError, ParameterError, ProtocolError
from ..hashing import HashPairs, attribute_pairs
from ..privacy.budget import BudgetLedger
from ..reliability.faults import fault_point
from ..rng import RandomState, ensure_rng
from ..serialization import decode_array, encode_array
from ..transform.hadamard import fwht_inplace
from .result import EstimateResult

if TYPE_CHECKING:
    # Chain (Section VI) types: the module itself loads on the first
    # middle-table collect or chain query, not with every session.
    from ..core.multiway import LDPCompassProtocol, LDPMiddleSketch, MiddleReportBatch

__all__ = ["JoinSession"]


def _multiway():
    """:mod:`repro.core.multiway`, imported by the first middle-table use."""
    from ..core import multiway

    return multiway


#: Process-wide counter giving each session a unique label for ledger groups.
_SESSION_IDS = itertools.count(1)


class _EndStream:
    """Accumulator of one single-attribute stream (end table)."""

    __slots__ = ("attribute", "raw", "num_reports", "uplink_bits", "cohorts", "cached")

    def __init__(self, attribute: int, k: int, m: int) -> None:
        self.attribute = attribute
        self.raw = np.zeros((k, m), dtype=np.int64)
        self.num_reports = 0
        self.uplink_bits = 0
        self.cohorts = 0
        self.cached: Optional[LDPJoinSketch] = None


class _MiddleStream:
    """Accumulator of one two-attribute stream (middle table)."""

    __slots__ = (
        "left_attribute",
        "raw",
        "num_reports",
        "uplink_bits",
        "cohorts",
        "cached",
    )

    def __init__(self, left_attribute: int, k: int, m_left: int, m_right: int) -> None:
        self.left_attribute = left_attribute
        self.raw = np.zeros((k, m_left, m_right), dtype=np.int64)
        self.num_reports = 0
        self.uplink_bits = 0
        self.cohorts = 0
        self.cached: Optional[LDPMiddleSketch] = None


_StreamState = Union[_EndStream, _MiddleStream]


class JoinSession:
    """One collection period: shared hash pairs, named streams, queries.

    Parameters
    ----------
    params:
        Sketch depth ``k`` and privacy budget ``epsilon`` of every stream;
        ``params.m`` is the width of the (single) join attribute unless
        ``attribute_widths`` overrides it.
    attribute_widths:
        Optional width per join attribute for chain schemas (each a power
        of two).  Defaults to ``[params.m]`` — a plain two-way join.
    seed:
        Master seed: draws the hash pairs (when not shared via ``pairs``)
        and the default client-simulation randomness.
    pairs:
        Pre-built hash pairs to share with sibling shards; normally
        obtained from a coordinator session via :attr:`pairs` or
        :meth:`spawn_shard`.
    backend:
        Compute-backend pin (``"numpy"``, ``"numba"``, a live
        :class:`repro.backend.Backend`, or ``None`` to follow the
        process-wide selection).  Every ingest and sketch
        materialisation of this session runs scoped to it.  A runtime
        preference, not state: it does not travel through
        :meth:`to_dict` and does not affect mergeability — shards built
        on different backends produce bit-identical accumulators.
    """

    def __init__(
        self,
        params: SketchParams,
        *,
        attribute_widths: Optional[Sequence[int]] = None,
        seed: RandomState = None,
        pairs: Optional[Sequence[HashPairs]] = None,
        backend=None,
    ) -> None:
        self.params = params
        if backend is not None:
            # Fail at construction on a backend typo (the spec itself is
            # kept, not the resolved instance — names stay picklable).
            resolve_backend(backend)
        self.backend = backend
        self._rng = ensure_rng(seed)
        # Shared pairs must match params.k and any declared widths; fresh
        # ones are drawn per attribute from the session generator.
        widths = attribute_widths
        if widths is None and pairs is None:
            widths = [params.m]
        self._pairs: List[HashPairs] = attribute_pairs(
            params.k, widths or (), self._rng, pairs=pairs
        )
        self._streams: Dict[str, _StreamState] = {}
        self.ledger = BudgetLedger()
        self.offline_seconds = 0.0
        self._label = f"shard{next(_SESSION_IDS)}"

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> Tuple[HashPairs, ...]:
        """The published hash pairs, one per join attribute."""
        return tuple(self._pairs)

    @property
    def num_attributes(self) -> int:
        """Number of join attributes in the session's schema."""
        return len(self._pairs)

    def streams(self) -> Tuple[str, ...]:
        """Stream names in insertion order."""
        return tuple(self._streams)

    def num_reports(self, stream: str) -> int:
        """Reports ingested so far for ``stream``."""
        return self._state(stream).num_reports

    def params_for(self, attribute: int) -> SketchParams:
        """The :class:`SketchParams` of one attribute's sketches."""
        if not 0 <= attribute < self.num_attributes:
            raise ParameterError(
                f"attribute must lie in [0, {self.num_attributes}), got {attribute}"
            )
        return SketchParams(self.params.k, self._pairs[attribute].m, self.params.epsilon)

    def spawn_shard(self, seed: RandomState = None) -> "JoinSession":
        """An empty sibling session sharing this session's pairs.

        Shards ingest independently (in other threads, processes or
        machines — see :meth:`to_dict`) and are folded back with
        :meth:`merge`.  The shard inherits this session's backend pin.
        """
        return JoinSession(
            self.params, seed=seed, pairs=self._pairs, backend=self.backend
        )

    def shard_fingerprint(self) -> dict:
        """The merge-compatibility fingerprint of this collection period.

        Everything two shards must share for their accumulators to sum
        into a valid sketch: shape, budget, the attribute schema and a
        digest of the published hash pairs.  Used by
        :meth:`to_partial` / :meth:`merge` to refuse unsafe merges
        (wrong seed, wrong ``m``, wrong ``epsilon``) at the wire level.
        """
        return {
            "k": self.params.k,
            "m": self.params.m,
            "privacy budget (epsilon)": self.params.epsilon,
            "attribute widths": [p.m for p in self._pairs],
            "hash pairs digest": self._pairs_digest,
        }

    @functools.cached_property
    def _pairs_digest(self) -> str:
        # ``_pairs`` is fixed at construction, so the digest (a JSON
        # encode + sha256 of every hash pair) is computed once; every
        # partial emit and merge check reads it.
        from ..distributed.partial import fingerprint_digest

        return fingerprint_digest([p.to_dict() for p in self._pairs])

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def collect(
        self,
        stream: str,
        values: Union[
            np.ndarray, Sequence[int], ReportBatch, PackedReports, CoinReports
        ],
        *,
        attribute: int = 0,
        seed: RandomState = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "JoinSession":
        """Fold one cohort of an end table into ``stream``.

        ``values`` is either raw client values (the session simulates the
        Algorithm 1 clients, drawing randomness from ``seed`` or the
        session generator) or pre-encoded reports received from real
        clients — a :class:`ReportBatch`, :class:`PackedReports` or
        :class:`CoinReports`, which fold by accumulation alone and draw
        no private randomness.  Cohorts are disjoint user groups, so each
        ``collect`` call composes in parallel on the privacy ledger.

        The uplink ledger charges what a client sends: ``report_bits``
        (sign, row and column) per report, except one bit per
        :class:`CoinReports` report, whose cell comes from the batch's
        public coin.

        Simulated cohorts route through the fused
        :func:`~repro.core.client.encode_reports_into` kernel, which
        encodes and accumulates ``chunk_size`` clients at a time — peak
        transient memory is O(``chunk_size``), independent of the cohort
        size.  Lower ``chunk_size`` to cap memory tighter, raise it to
        shave per-chunk dispatch overhead; the estimate distribution is
        identical either way.
        """
        fault_point("session.ingest", stream=str(stream), attribute=int(attribute))
        start = time.perf_counter()
        state = self._end_state(stream, attribute)
        expected = self.params_for(state.attribute)
        bits_per_report = expected.report_bits
        if isinstance(values, (ReportBatch, PackedReports, CoinReports)):
            batch = values
            if batch.params != expected:
                raise IncompatibleSketchError(
                    f"report batch parameters {batch.params} do not match "
                    f"attribute {state.attribute} parameters {expected}"
                )
            num_new = len(batch)
            if isinstance(batch, CoinReports):
                bits_per_report = 1
            if num_new and isinstance(batch, (PackedReports, CoinReports)):
                cells, ys = batch.cells_and_signs()
                with use_backend(self.backend):
                    # ``raw`` is always an owned C-contiguous array
                    # (allocated or decoded, then updated in place), so
                    # the flat reshape is a view the scatter lands in.
                    scatter_add_signed_units(state.raw.reshape(-1), (cells,), ys)
            elif num_new:
                with use_backend(self.backend):
                    scatter_add_signed_units(
                        state.raw, (batch.rows, batch.cols), batch.ys
                    )
        else:
            rng = self._rng if seed is None else ensure_rng(seed)
            num_new = encode_reports_into(
                values,
                expected,
                self._pairs[state.attribute],
                state.raw,
                rng,
                chunk_size=chunk_size,
                backend=self.backend,
            )
        if num_new:
            state.num_reports += num_new
            state.uplink_bits += num_new * bits_per_report
            self._charge(stream, state, "LDPJoinSketch")
            state.cached = None
        self.offline_seconds += time.perf_counter() - start
        return self

    def collect_pair(
        self,
        stream: str,
        left_values: Union[np.ndarray, Sequence[int], MiddleReportBatch],
        right_values: Optional[Union[np.ndarray, Sequence[int]]] = None,
        *,
        left_attribute: int = 0,
        seed: RandomState = None,
    ) -> "JoinSession":
        """Fold one cohort of a two-attribute middle table into ``stream``.

        The table joins attribute ``left_attribute`` on its left column
        and ``left_attribute + 1`` on its right.  Accepts either the two
        raw columns or a pre-encoded :class:`MiddleReportBatch`.
        """
        start = time.perf_counter()
        state = self._middle_state(stream, left_attribute)
        left_pairs = self._pairs[state.left_attribute]
        right_pairs = self._pairs[state.left_attribute + 1]
        if isinstance(left_values, _multiway().MiddleReportBatch):
            if right_values is not None:
                raise ParameterError(
                    "pass either a MiddleReportBatch or two value columns, not both"
                )
            batch = left_values
            if (
                batch.k != self.params.k
                or batch.m_left != left_pairs.m
                or batch.m_right != right_pairs.m
                or batch.epsilon != self.params.epsilon
            ):
                raise IncompatibleSketchError(
                    "middle report batch does not match the session schema"
                )
        else:
            if right_values is None:
                raise ParameterError("middle-table collection needs both value columns")
            rng = self._rng if seed is None else ensure_rng(seed)
            with use_backend(self.backend):
                batch = self._chain_protocol().encode_middle(
                    state.left_attribute, left_values, right_values, rng
                )
        if len(batch):
            with use_backend(self.backend):
                scatter_add_signed_units(
                    state.raw,
                    (batch.replicas, batch.left_cols, batch.right_cols),
                    batch.ys,
                )
            state.num_reports += len(batch)
            state.uplink_bits += batch.total_bits
            self._charge(stream, state, "LDP-COMPASS")
            state.cached = None
        self.offline_seconds += time.perf_counter() - start
        return self

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def collect_sharded(
        self,
        stream: str,
        values: Union[np.ndarray, Sequence[int]],
        *,
        num_shards: int = 1,
        strategy: str = "hash",
        seed: RandomState = None,
        attribute: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "JoinSession":
        """Fold one cohort as ``num_shards`` deterministic shard cohorts.

        This is the *single-aggregator reference* of sharded collection:
        the population is partitioned by a
        :class:`~repro.distributed.ShardPlanner` and each shard's slice
        is ingested with that shard's derived seed — exactly the
        randomness the shard's own aggregator would draw.  A distributed
        run (shard sessions emitting
        :class:`~repro.distributed.PartialAggregate`\\ s, reduced by
        :func:`~repro.distributed.merge_tree`) therefore reproduces this
        session's accumulators byte for byte, for any merge topology.

        ``num_shards=1`` delegates straight to :meth:`collect` — the
        identity plan — so one-shard collection reproduces the unsharded
        figures bit for bit (``seed=None`` keeps using the session
        stream).
        """
        from ..distributed.planner import ShardPlanner

        if num_shards == 1:
            return self.collect(
                stream, values, attribute=attribute, seed=seed, chunk_size=chunk_size
            )
        planner = ShardPlanner(num_shards, strategy=strategy)
        shard_seeds = planner.shard_seeds(
            self._rng if seed is None else ensure_rng(seed)
        )
        for shard_values, shard_seed in zip(planner.split(values), shard_seeds):
            self.collect(
                stream,
                shard_values,
                attribute=attribute,
                seed=shard_seed,
                chunk_size=chunk_size,
            )
        return self

    def to_partial(self, *, include_timing: bool = True) -> "PartialAggregate":
        """This session's state as a mergeable wire partial.

        The partial carries the pre-transform integer accumulators, the
        additive accounting and the privacy-ledger charges, fingerprinted
        by :meth:`shard_fingerprint` — everything another aggregator
        needs to fold this shard in safely, at a fraction of the
        :meth:`to_dict` payload (no hash-pair coefficients, just their
        digest).  Feed it to :meth:`merge`, a
        :func:`~repro.distributed.merge_tree`, or a
        :class:`~repro.distributed.ShardCheckpoint`.

        ``include_timing=False`` drops the wall-clock ``offline_seconds``
        counter — the one field of a partial that varies between
        otherwise identical runs.  Callers that need *byte*-identical
        payloads (the online service publishing canonical snapshots)
        exclude it; accounting flows keep the default.
        """
        from ..distributed.partial import PartialAggregate

        partial = PartialAggregate(
            "join-session",
            self.shard_fingerprint(),
            counters=(
                {"offline_seconds": self.offline_seconds} if include_timing else {}
            ),
            meta={
                "streams": {
                    name: {
                        "kind": "end" if isinstance(state, _EndStream) else "middle",
                        "attribute": (
                            state.attribute
                            if isinstance(state, _EndStream)
                            else state.left_attribute
                        ),
                    }
                    for name, state in self._streams.items()
                },
                "charges": [list(charge) for charge in self.ledger.charges],
            },
        )
        for name, state in self._streams.items():
            # Snapshot, not alias: the session keeps ingesting after the
            # partial is emitted, and an in-place scatter-add must never
            # retroactively mutate an already-shipped payload.
            partial.add_array(f"stream:{name}:raw", state.raw.copy())
            partial.counters[f"stream:{name}:num_reports"] = float(state.num_reports)
            partial.counters[f"stream:{name}:uplink_bits"] = float(state.uplink_bits)
            partial.counters[f"stream:{name}:cohorts"] = float(state.cohorts)
        return partial

    def _merge_partial(self, partial: "PartialAggregate") -> "JoinSession":
        """Fold a shard's :class:`PartialAggregate` into this session."""
        from ..errors import require_merge_compatible

        mine = self.shard_fingerprint()
        require_merge_compatible(
            "join-session partials",
            method=("join-session", partial.method),
            **{key: (mine[key], partial.fingerprint.get(key)) for key in mine},
        )
        for name, entry in partial.meta.get("streams", {}).items():
            attribute = int(entry["attribute"])
            if entry["kind"] == "end":
                state: _StreamState = self._end_state(name, attribute)
            else:
                state = self._middle_state(name, attribute)
            raw = partial.arrays[f"stream:{name}:raw"]
            if raw.shape != state.raw.shape:
                raise IncompatibleSketchError(
                    f"partial stream {name!r} accumulator shaped {raw.shape}, "
                    f"expected {state.raw.shape}"
                )
            state.raw += raw
            state.num_reports += int(partial.counters[f"stream:{name}:num_reports"])
            state.uplink_bits += int(partial.counters[f"stream:{name}:uplink_bits"])
            state.cohorts += int(partial.counters[f"stream:{name}:cohorts"])
            state.cached = None
        # Shard charges describe disjoint cohorts; colliding group names
        # are renamed (probe-until-unique) so parallel — not sequential —
        # composition applies, same rule as session merge.
        self.ledger.absorb(partial.meta.get("charges", []), label="partial")
        self.offline_seconds += float(partial.counters.get("offline_seconds", 0.0))
        return self

    def merge(self, other) -> "JoinSession":
        """Fold another shard's state into this session. Returns self.

        ``other`` is either a sibling :class:`JoinSession` or a
        :class:`~repro.distributed.PartialAggregate` produced by
        :meth:`to_partial` (possibly already the reduction of a whole
        merge tree).  Requires identical :class:`SketchParams` and
        identical hash pairs for every attribute (the same checks
        :meth:`LDPJoinSketch.check_mergeable` applies to constructed
        sketches); raises :class:`IncompatibleSketchError` otherwise.
        The pre-transform sum is exact, so a merged session is
        indistinguishable — bit for bit — from one that ingested every
        batch itself.
        """
        from ..distributed.partial import PartialAggregate

        if isinstance(other, PartialAggregate):
            return self._merge_partial(other)
        if not isinstance(other, JoinSession):
            raise IncompatibleSketchError(
                f"cannot merge JoinSession with {type(other).__name__}"
            )
        if other is self:
            raise IncompatibleSketchError(
                "cannot merge a session with itself (shards are distinct objects)"
            )
        if self.params != other.params:
            raise IncompatibleSketchError(
                f"cannot merge sessions with mismatched parameters (shape or "
                f"privacy budget): {self.params} vs {other.params}"
            )
        if len(self._pairs) != len(other._pairs) or any(
            a != b for a, b in zip(self._pairs, other._pairs)
        ):
            raise IncompatibleSketchError(
                "sessions use different hash pairs; sharded collection requires "
                "pairs published once and shared by every shard"
            )
        for name, theirs in other._streams.items():
            mine = self._streams.get(name)
            if mine is None:
                mine = self._fresh_like(theirs)
                self._streams[name] = mine
            else:
                if type(mine) is not type(theirs):
                    raise IncompatibleSketchError(
                        f"stream {name!r} is an end table in one session and a "
                        f"middle table in the other"
                    )
                their_attr = (
                    theirs.attribute
                    if isinstance(theirs, _EndStream)
                    else theirs.left_attribute
                )
                my_attr = (
                    mine.attribute if isinstance(mine, _EndStream) else mine.left_attribute
                )
                if my_attr != their_attr:
                    raise IncompatibleSketchError(
                        f"stream {name!r} is bound to different join attributes "
                        f"({my_attr} vs {their_attr})"
                    )
            mine.raw += theirs.raw
            mine.num_reports += theirs.num_reports
            mine.uplink_bits += theirs.uplink_bits
            mine.cohorts += theirs.cohorts
            mine.cached = None
        # Disjoint-cohort charges: absorb probes colliding group names
        # until unique, so merging shards that share a label (sessions
        # rebuilt via from_dict in separate processes used to reboot with
        # colliding counter labels) cannot collapse two cohorts into one
        # group and double the reported worst-case spend.
        self.ledger.absorb(other.ledger.charges, label=other._label)
        self.offline_seconds += other.offline_seconds
        return self

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def sketch(self, stream: str) -> LDPJoinSketch:
        """The constructed :class:`LDPJoinSketch` of an end stream."""
        state = self._state(stream)
        if not isinstance(state, _EndStream):
            raise ProtocolError(f"stream {stream!r} is a middle table, not an end table")
        if state.num_reports == 0:
            raise ProtocolError(f"stream {stream!r} has no reports yet")
        if state.cached is None:
            params = self.params_for(state.attribute)
            # One transient: scale the float copy in place, transform in
            # place.  The result is cached until the next collect/merge
            # invalidates it, so back-to-back queries never re-run the
            # FWHT.
            counts = state.raw.astype(np.float64)
            counts *= params.scale
            with use_backend(self.backend):
                fwht_inplace(counts)
            state.cached = LDPJoinSketch(
                params, self._pairs[state.attribute], counts, state.num_reports
            )
        return state.cached

    def _chain_protocol(self) -> LDPCompassProtocol:
        """The Section VI chain protocol over this session's pairs."""
        return _multiway().LDPCompassProtocol.from_pairs(self._pairs, self.params.epsilon)

    def middle_sketch(self, stream: str) -> LDPMiddleSketch:
        """The constructed :class:`LDPMiddleSketch` of a middle stream."""
        state = self._state(stream)
        if not isinstance(state, _MiddleStream):
            raise ProtocolError(f"stream {stream!r} is an end table, not a middle table")
        if state.num_reports == 0:
            raise ProtocolError(f"stream {stream!r} has no reports yet")
        if state.cached is None:
            scaled = state.raw.astype(np.float64)
            scaled *= self.params.scale
            with use_backend(self.backend):
                counts = _multiway().finalize_middle_counts(scaled)
            state.cached = _multiway().LDPMiddleSketch(
                self._pairs[state.left_attribute],
                self._pairs[state.left_attribute + 1],
                counts,
                self.params.epsilon,
                state.num_reports,
            )
        return state.cached

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(
        self, stream_a: Optional[str] = None, stream_b: Optional[str] = None
    ) -> EstimateResult:
        """Eq. (5) join-size estimate between two end streams.

        With no arguments the session must hold exactly two end streams
        (the common two-way case); both streams must share the same join
        attribute.
        """
        name_a, name_b = self._resolve_pair(stream_a, stream_b)
        if name_a == name_b:
            raise ProtocolError(
                f"estimate({name_a!r}, {name_b!r}) would multiply a sketch by "
                f"itself, where the per-report noise does not cancel; use "
                f"second_moment({name_a!r}) for debiased self-joins"
            )
        state_a = self._state(name_a)
        state_b = self._state(name_b)
        for name, state in ((name_a, state_a), (name_b, state_b)):
            if not isinstance(state, _EndStream):
                raise ProtocolError(
                    f"stream {name!r} is a middle table; estimate() joins two "
                    f"end tables (use estimate_chain for multiway queries)"
                )
        if state_a.attribute != state_b.attribute:
            raise ProtocolError(
                f"streams {name_a!r} and {name_b!r} are bound to different join "
                f"attributes; use estimate_chain for multiway queries"
            )
        sketch_a = self.sketch(name_a)
        sketch_b = self.sketch(name_b)
        start = time.perf_counter()
        estimate = sketch_a.join_size(sketch_b)
        online = time.perf_counter() - start
        return EstimateResult(
            estimate=estimate,
            offline_seconds=self.offline_seconds,
            online_seconds=online,
            uplink_bits=state_a.uplink_bits + state_b.uplink_bits,
            sketch_bytes=sketch_a.memory_bytes() + sketch_b.memory_bytes(),
            ledger=self.ledger,
            extras={
                "num_reports": state_a.num_reports + state_b.num_reports,
                "streams": (name_a, name_b),
            },
        )

    def estimate_chain(self, streams: Optional[Sequence[str]] = None) -> EstimateResult:
        """Eq. (27) chain-join estimate over end/middle/.../end streams.

        ``streams`` defaults to every stream in insertion order.  The
        first and last must be end tables on the first and last join
        attributes; each middle table must bridge consecutive attributes.
        """
        names = list(streams) if streams is not None else list(self._streams)
        if len(names) < 2:
            raise ProtocolError("a chain query needs at least two streams")
        if len(set(names)) != len(names):
            # Same reason estimate() rejects identical streams: a sketch
            # multiplied by itself keeps its noise energy undebiased.
            raise ProtocolError(
                f"chain streams must be distinct, got {names}; use "
                f"second_moment for self-joins"
            )
        first_state = self._state(names[0])
        last_state = self._state(names[-1])
        for name, state, wanted in (
            (names[0], first_state, 0),
            (names[-1], last_state, self.num_attributes - 1),
        ):
            if not isinstance(state, _EndStream):
                raise ProtocolError(f"chain ends must be end tables; {name!r} is not")
            if state.attribute != wanted:
                raise ProtocolError(
                    f"chain end {name!r} is bound to attribute {state.attribute}, "
                    f"expected {wanted}"
                )
        middle_names = names[1:-1]
        for idx, name in enumerate(middle_names):
            state = self._state(name)
            if not isinstance(state, _MiddleStream):
                raise ProtocolError(f"chain middle {name!r} is not a middle table")
            if state.left_attribute != idx:
                raise ProtocolError(
                    f"chain middle {name!r} bridges attributes "
                    f"({state.left_attribute}, {state.left_attribute + 1}), "
                    f"expected ({idx}, {idx + 1})"
                )
        first = self.sketch(names[0])
        last = self.sketch(names[-1])
        middles = [self.middle_sketch(name) for name in middle_names]
        start = time.perf_counter()
        estimate = self._chain_protocol().estimate_chain(first, middles, last)
        online = time.perf_counter() - start
        states = [self._state(name) for name in names]
        return EstimateResult(
            estimate=estimate,
            offline_seconds=self.offline_seconds,
            online_seconds=online,
            uplink_bits=sum(s.uplink_bits for s in states),
            sketch_bytes=first.memory_bytes()
            + last.memory_bytes()
            + sum(m.memory_bytes() for m in middles),
            ledger=self.ledger,
            extras={
                "num_reports": sum(s.num_reports for s in states),
                "streams": tuple(names),
            },
        )

    def frequencies(
        self, stream: str, values, *, method: str = "mean"
    ) -> np.ndarray:
        """Theorem 7 frequency estimates against one end stream."""
        return self.sketch(stream).frequencies(values, method=method)

    def second_moment(self, stream: str) -> float:
        """Debiased self-join (``F2``) estimate of one end stream."""
        return self.sketch(stream).second_moment()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise the full session state (JSON-compatible).

        Everything a remote shard needs travels along: parameters, hash
        pairs, per-stream accumulators and accounting.  Accumulators ship
        as base64-encoded raw bytes plus a dtype/shape header — roughly
        half the JSON footprint of the old ``tolist()`` payloads and no
        per-element Python objects; :meth:`from_dict` reads both the
        packed format and the legacy nested lists.
        """
        streams = {}
        for name, state in self._streams.items():
            if isinstance(state, _EndStream):
                entry = {"kind": "end", "attribute": state.attribute}
            else:
                entry = {"kind": "middle", "attribute": state.left_attribute}
            entry.update(
                raw=encode_array(state.raw),
                num_reports=state.num_reports,
                uplink_bits=state.uplink_bits,
                cohorts=state.cohorts,
            )
            streams[name] = entry
        return {
            "params": {
                "k": self.params.k,
                "m": self.params.m,
                "epsilon": self.params.epsilon,
            },
            "pairs": [p.to_dict() for p in self._pairs],
            "streams": streams,
            "charges": [list(charge) for charge in self.ledger.charges],
            "offline_seconds": self.offline_seconds,
            "label": self._label,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JoinSession":
        """Rebuild a session serialised by :meth:`to_dict`."""
        params = SketchParams(**payload["params"])
        pairs = [HashPairs.from_dict(p) for p in payload["pairs"]]
        session = cls(params, pairs=pairs)
        for name, entry in payload["streams"].items():
            k = params.k
            if entry["kind"] == "end":
                attribute = int(entry["attribute"])
                state: _StreamState = _EndStream(attribute, k, pairs[attribute].m)
            else:
                attribute = int(entry["attribute"])
                state = _MiddleStream(
                    attribute, k, pairs[attribute].m, pairs[attribute + 1].m
                )
            raw = decode_array(entry["raw"], np.int64)
            if raw.shape != state.raw.shape:
                raise ParameterError(
                    f"stream {name!r} accumulator shaped {raw.shape}, "
                    f"expected {state.raw.shape}"
                )
            state.raw = raw
            state.num_reports = int(entry["num_reports"])
            state.uplink_bits = int(entry["uplink_bits"])
            state.cohorts = int(entry["cohorts"])
            session._streams[name] = state
        session.ledger.restore(payload.get("charges", []))
        session.offline_seconds = float(payload.get("offline_seconds", 0.0))
        # Keep the serialised label: sessions rebooted in separate worker
        # processes must stay distinguishable when merged, not all reboot
        # under the restarted process-wide counter.  Legacy payloads
        # without one keep the fresh counter label from __init__.
        label = payload.get("label")
        if label:
            session._label = str(label)
        return session

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_pair(
        self, stream_a: Optional[str], stream_b: Optional[str]
    ) -> Tuple[str, str]:
        if stream_a is not None and stream_b is not None:
            return stream_a, stream_b
        if stream_a is None and stream_b is None:
            ends = [
                name
                for name, state in self._streams.items()
                if isinstance(state, _EndStream)
            ]
            if len(ends) != 2:
                raise ProtocolError(
                    f"estimate() without stream names needs exactly two end "
                    f"streams, found {ends}"
                )
            return ends[0], ends[1]
        raise ProtocolError("pass both stream names or neither")

    def _state(self, stream: str) -> _StreamState:
        try:
            return self._streams[stream]
        except KeyError:
            raise ProtocolError(
                f"unknown stream {stream!r}; collected streams: {list(self._streams)}"
            ) from None

    def _end_state(self, stream: str, attribute: int) -> _EndStream:
        self.params_for(attribute)  # bounds check
        state = self._streams.get(stream)
        if state is None:
            state = _EndStream(attribute, self.params.k, self._pairs[attribute].m)
            self._streams[stream] = state
            return state
        if not isinstance(state, _EndStream):
            raise ProtocolError(f"stream {stream!r} already collects middle tables")
        if state.attribute != attribute:
            raise ProtocolError(
                f"stream {stream!r} is bound to attribute {state.attribute}, "
                f"got {attribute}"
            )
        return state

    def _middle_state(self, stream: str, left_attribute: int) -> _MiddleStream:
        if not 0 <= left_attribute < self.num_attributes - 1:
            raise ParameterError(
                f"left_attribute must lie in [0, {self.num_attributes - 1}), "
                f"got {left_attribute}"
            )
        state = self._streams.get(stream)
        if state is None:
            state = _MiddleStream(
                left_attribute,
                self.params.k,
                self._pairs[left_attribute].m,
                self._pairs[left_attribute + 1].m,
            )
            self._streams[stream] = state
            return state
        if not isinstance(state, _MiddleStream):
            raise ProtocolError(f"stream {stream!r} already collects end tables")
        if state.left_attribute != left_attribute:
            raise ProtocolError(
                f"stream {stream!r} is bound to attributes "
                f"({state.left_attribute}, {state.left_attribute + 1}), "
                f"got left_attribute={left_attribute}"
            )
        return state

    def _fresh_like(self, other: _StreamState) -> _StreamState:
        if isinstance(other, _EndStream):
            return _EndStream(
                other.attribute, self.params.k, self._pairs[other.attribute].m
            )
        return _MiddleStream(
            other.left_attribute,
            self.params.k,
            self._pairs[other.left_attribute].m,
            self._pairs[other.left_attribute + 1].m,
        )

    def _charge(self, stream: str, state: _StreamState, mechanism: str) -> None:
        # Every cohort is a disjoint user group (parallel composition);
        # the first keeps the bare stream name so single-shot flows read
        # naturally in the ledger.
        group = stream if state.cohorts == 0 else f"{stream}#{state.cohorts + 1}"
        state.cohorts += 1
        self.ledger.charge(group, self.params.epsilon, mechanism)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        streams = ", ".join(
            f"{name}:{state.num_reports}" for name, state in self._streams.items()
        )
        return (
            f"JoinSession(k={self.params.k}, epsilon={self.params.epsilon:g}, "
            f"attributes={self.num_attributes}, streams=[{streams}])"
        )
