"""Epoch-bucketed collection with sliding / tumbling window queries.

:class:`TemporalSession` runs one :class:`~repro.api.JoinSession` per
*epoch* (the open bucket) on hash pairs shared by every epoch, closes
each bucket into a mergeable
:class:`~repro.distributed.PartialAggregate` ring, and answers window
queries by tree-merging the requested epochs into a fresh session — the
same byte-identical reduction shard collection uses, so a window
estimate equals, bit for bit, the estimate of a session that ingested
only the window's batches.

Three query shapes:

* **sliding** (:meth:`window_session`, :meth:`window_estimate`) — the
  newest ``W`` epochs at any moment, open bucket included by default;
* **tumbling** (:meth:`tumbling_session`) — the last *complete* aligned
  block of ``width`` epochs (``[b*width, (b+1)*width)``);
* **decayed** (:meth:`decayed_estimate`) — exponentially down-weighted
  combination with an exact rational decay factor
  (:mod:`repro.temporal.decay`).

Sliding windows are cached, with results byte-identical to a fresh
merge: the tree-merge of a window's closed epochs is memoised per span
until the next :meth:`~TemporalSession.roll` (which clears it), and
:meth:`~TemporalSession.window_estimate` reuses its last window session
— transformed sketches included — until the next fold (``collect``,
``collect_pair`` or ``roll``).  :meth:`~TemporalSession.window_session`
always returns a fresh session the caller may mutate.

Every epoch close also charges the
:class:`~repro.privacy.ContinualLedger`: epoch cohorts are keyed
``(subject, epoch, group)`` where the subject is the stream's namespace
prefix (``tenant/stream`` → ``tenant``), giving per-tenant
continual-observation accounting across re-released epochs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..api.result import EstimateResult
from ..api.session import JoinSession
from ..core.params import SketchParams
from ..distributed.merge import merge_tree
from ..distributed.partial import PartialAggregate
from ..errors import ParameterError, ProtocolError
from ..hashing import HashPairs
from ..privacy.budget import ContinualLedger
from ..rng import RandomState, derive_seed, ensure_rng
from .decay import decayed_join_estimate
from .ring import EpochRing

__all__ = ["TemporalSession"]


class TemporalSession:
    """One collection timeline: shared pairs, epoch ring, window queries.

    Parameters
    ----------
    params:
        Sketch parameters of every epoch's streams.
    window_epochs:
        Ring capacity — the largest sliding window answerable, and the
        retention horizon of closed epochs.
    seed:
        Master seed of the coordinator session (draws the shared hash
        pairs when ``pairs`` is not given).
    pairs:
        Pre-built hash pairs to share (e.g. with a sibling service).
    backend:
        Compute-backend pin forwarded to every epoch session.
    continual:
        The continual-observation ledger to charge at epoch close; a
        fresh one by default.
    """

    def __init__(
        self,
        params: SketchParams,
        *,
        window_epochs: int = 8,
        seed: RandomState = None,
        pairs: Optional[Sequence[HashPairs]] = None,
        backend=None,
        continual: Optional[ContinualLedger] = None,
    ) -> None:
        self.params = params
        self._coordinator = JoinSession(
            params, seed=seed, pairs=pairs, backend=backend
        )
        self._ring = EpochRing(window_epochs)
        # Epoch shards draw their client-simulation seeds from this
        # stream so a fixed master seed pins the whole timeline, not
        # just the hash pairs.
        self._shard_rng = ensure_rng(seed)
        self._open = self._spawn_epoch_shard()
        self._epoch = 0
        self.continual = ContinualLedger() if continual is None else continual
        # Query caches.  ``_spans`` maps a closed-epoch span (first,
        # last) to its tree-merged partial; the ring only changes on
        # roll, which clears it, so it holds at most one entry per
        # suffix of the ring.  ``_version`` counts mutations (collect,
        # collect_pair, roll); the last window session is reused while
        # ``(window, include_open, version)`` is unchanged.
        self._spans: Dict[Tuple[int, int], PartialAggregate] = {}
        self._version = 0
        self._answer_key: Optional[tuple] = None
        self._answer: Optional[Tuple[JoinSession, List[int]]] = None

    def _spawn_epoch_shard(self) -> JoinSession:
        return self._coordinator.spawn_shard(
            seed=derive_seed(self._shard_rng)
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> Tuple[HashPairs, ...]:
        """The published hash pairs shared by every epoch."""
        return self._coordinator.pairs

    @property
    def epoch(self) -> int:
        """Index of the open (currently ingesting) epoch."""
        return self._epoch

    @property
    def window_epochs(self) -> int:
        """Ring capacity: the largest answerable sliding window."""
        return self._ring.capacity

    @property
    def ring(self) -> EpochRing:
        """The ring of closed epochs (read-only by convention)."""
        return self._ring

    def open_reports(self) -> int:
        """Reports ingested into the open epoch so far."""
        return sum(
            self._open.num_reports(name) for name in self._open.streams()
        )

    # ------------------------------------------------------------------
    # Ingestion / epoch roll
    # ------------------------------------------------------------------
    def collect(self, stream: str, values, **kwargs) -> "TemporalSession":
        """Fold one end-table cohort into the open epoch's ``stream``."""
        self._open.collect(stream, values, **kwargs)
        self._version += 1
        return self

    def collect_pair(self, stream: str, *args, **kwargs) -> "TemporalSession":
        """Fold one middle-table cohort into the open epoch's ``stream``."""
        self._open.collect_pair(stream, *args, **kwargs)
        self._version += 1
        return self

    def roll(self) -> PartialAggregate:
        """Close the open epoch into the ring; open the next.

        The closed epoch's partial (timing excluded — epochs are part of
        published identity) is retained in the ring, its cohort charges
        land on the continual ledger under ``(subject, epoch, group)``,
        and a fresh sibling session on the same pairs starts the next
        epoch.  Empty epochs close too: the ring mirrors elapsed time,
        not traffic.
        """
        partial = self._open.to_partial(include_timing=False)
        self._ring.push(self._epoch, partial)
        for group, epsilon, mechanism in self._open.ledger.charges:
            self.continual.charge(
                self._subject_of(group), self._epoch, group, epsilon, mechanism
            )
        self._epoch += 1
        self._open = self._spawn_epoch_shard()
        self._spans.clear()
        self._version += 1
        return partial

    def roll_to(self, epoch: int) -> int:
        """Close epochs until ``epoch`` is the open one; returns rolls made.

        Idempotent: rolling to the current (or an earlier) epoch does
        nothing, which is what lets replay drive the roll from WAL
        sequence numbers without tracking extra state.
        """
        rolls = 0
        while self._epoch < int(epoch):
            self.roll()
            rolls += 1
        return rolls

    @staticmethod
    def _subject_of(group: str) -> str:
        """Accounting principal of one cohort group.

        Cohort groups are ``stream`` / ``stream#N``; service streams are
        namespaced ``tenant/stream``.  The subject is the namespace
        prefix when present, the bare stream otherwise.
        """
        stream = group.split("#", 1)[0]
        return stream.split("/", 1)[0]

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------
    def window_entries(
        self, window: Optional[int] = None, *, include_open: bool = True
    ) -> List[Tuple[int, PartialAggregate]]:
        """The ``(epoch, partial)`` pairs a window query merges, oldest first.

        ``window`` counts epochs, the open bucket included when
        ``include_open`` (the default — fresh data answers queries).
        ``None`` means everything retained.  Windows wider than the ring
        capacity are refused rather than silently under-covered.
        """
        capacity = self._ring.capacity + (1 if include_open else 0)
        if window is not None:
            window = int(window)
            if window < 1:
                raise ParameterError(f"window must be >= 1, got {window}")
            if window > capacity:
                raise ParameterError(
                    f"window {window} exceeds the {capacity}-epoch retention "
                    f"horizon (window_epochs={self._ring.capacity}"
                    f"{', open epoch included' if include_open else ''})"
                )
        entries = list(self._ring)
        if include_open:
            entries.append(
                (self._epoch, self._open.to_partial(include_timing=False))
            )
        if window is not None:
            entries = entries[-window:]
        if not entries:
            raise ProtocolError("no epochs to query yet")
        return entries

    def window_session(
        self, window: Optional[int] = None, *, include_open: bool = True
    ) -> JoinSession:
        """A fresh session holding exactly the window's accumulators.

        Merges the window's closed epochs (one memoised tree-merge per
        span, reused until the next :meth:`roll`) and then the open
        epoch's fresh partial — integer adds on pre-transform
        accumulators, charges concatenated in epoch order — so the
        result is byte-identical to a session that ingested only the
        window's batches, and every :class:`~repro.api.JoinSession`
        query runs on it unchanged.  The session is the caller's to
        mutate: no cache holds it.
        """
        return self._build_window(window, include_open)[0]

    def window_estimate(
        self,
        stream_a: str,
        stream_b: str,
        window: Optional[int],
        *,
        include_open: bool = True,
    ) -> EstimateResult:
        """Eq. (5) estimate over a sliding window, cached until the next fold.

        Equal, bit for bit, to ``window_session(window,
        include_open=include_open).estimate(stream_a, stream_b)``.  The
        window session (with its transformed sketches) is kept until the
        next ``collect`` / ``collect_pair`` / ``roll``, so repeat queries
        on an unchanged ring skip the merge and the FWHT.  The result's
        ``extras["epochs"]`` lists the covered epochs, oldest first.
        """
        key = (window, include_open, self._version)
        if self._answer_key != key:
            self._answer = self._build_window(window, include_open)
            self._answer_key = key
        session, epochs = self._answer
        result = session.estimate(stream_a, stream_b)
        result.extras["epochs"] = list(epochs)
        return result

    def _build_window(
        self, window: Optional[int], include_open: bool
    ) -> Tuple[JoinSession, List[int]]:
        """A fresh window session plus the epochs it covers."""
        entries = self.window_entries(window, include_open=include_open)
        closed = entries[:-1] if include_open else entries
        session = JoinSession(self.params, pairs=self._coordinator.pairs)
        if closed:
            span = (closed[0][0], closed[-1][0])
            merged = self._spans.get(span)
            if merged is None:
                merged = self._spans[span] = merge_tree(
                    [partial for _, partial in closed]
                )
            # Merging reads the partial without mutating it, so the
            # memoised span stays valid for the next query.
            session.merge(merged)
        if include_open:
            session.merge(entries[-1][1])
        return session, [epoch for epoch, _ in entries]

    def tumbling_session(self, width: int) -> JoinSession:
        """The last complete aligned block of ``width`` epochs.

        Blocks tile the timeline as ``[b*width, (b+1)*width)``; the
        query answers for the newest *fully closed* block, which is the
        tumbling-window contract (no partial blocks, no overlap).
        """
        width = int(width)
        if width < 1:
            raise ParameterError(f"width must be >= 1, got {width}")
        if width > self._ring.capacity:
            raise ParameterError(
                f"width {width} exceeds the {self._ring.capacity}-epoch "
                f"retention horizon"
            )
        block_end = (self._epoch // width) * width
        if block_end == 0:
            raise ProtocolError(
                f"no complete {width}-epoch tumbling block closed yet "
                f"(open epoch is {self._epoch})"
            )
        entries = self._ring.slice(block_end - width, block_end)
        session = JoinSession(self.params, pairs=self._coordinator.pairs)
        session.merge(merge_tree([partial for _, partial in entries]))
        return session

    def decayed_estimate(
        self,
        stream_a: str,
        stream_b: str,
        *,
        decay: Tuple[int, int] = (1, 2),
        window: Optional[int] = None,
        include_open: bool = True,
    ) -> float:
        """Exponentially decayed Eq. (5) estimate over the window.

        ``decay`` is the exact rational factor ``numerator/denominator``
        applied per epoch of age — see :mod:`repro.temporal.decay` for
        why the combination stays integer-exact.
        """
        entries = self.window_entries(window, include_open=include_open)
        return decayed_join_estimate(
            entries,
            params=self.params,
            pairs=self._coordinator.pairs,
            stream_a=stream_a,
            stream_b=stream_b,
            decay=decay,
            backend=self._coordinator.backend,
        )

    def note_release(
        self, subject: str, entries: Sequence[Tuple[int, PartialAggregate]]
    ) -> None:
        """Record that a window release for ``subject`` covered ``entries``."""
        self.continual.note_release(subject, [epoch for epoch, _ in entries])

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """JSON-compatible operational summary for status endpoints."""
        return {
            "epoch": self._epoch,
            "window_epochs": self._ring.capacity,
            "closed_epochs": len(self._ring),
            "retained_epochs": self._ring.epochs(),
            "open_reports": self.open_reports(),
            "continual": self.continual.summary(),
        }
