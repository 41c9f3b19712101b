"""Crash-safe online aggregation service over the distributed layer.

The package turns the batch pieces — mergeable
:class:`~repro.distributed.PartialAggregate`\\ s, atomic
:class:`~repro.distributed.ShardCheckpoint`\\ s, the PR 7 fault/retry
machinery — into a long-running, *replicated* HTTP collector:

* :mod:`repro.service.wal` — crc32-framed append-only WAL of perturbed
  reports (a public coin plus one sign bit each) with a fencing-epoch
  header, the durability boundary every acknowledgement sits behind.
* :mod:`repro.service.core` — the synchronous, deterministic engine:
  WAL-sequenced folds into per-shard sessions, checkpoint cadence,
  WAL-durable idempotency ledger (exactly-once ingest), canonical
  published snapshots, crash recovery.
* :mod:`repro.service.replication` — primary/standby WAL-frame
  shipping with quorum/async acks, gap catch-up, and fenced failover
  (a promoted standby's epoch bump turns the old primary into a
  self-fencing zombie).
* :mod:`repro.service.client` — :class:`ResilientClient`: exactly-once
  writes under aggressive retries, automatic re-target on failover,
  per-endpoint circuit breakers, hedged reads against standbys.
* :mod:`repro.service.server` — the asyncio HTTP front-end: bounded
  queues, per-tenant admission, 429 + Retry-After backpressure, request
  deadlines, typed 409 replication rejections, ``/healthz`` /
  ``/readyz``, graceful SIGTERM drain.

Run one with ``repro-experiments serve`` or ``python -m repro.service``
(``--role standby`` + ``--replica host:port`` wire up a group).

Exports are lazy (:mod:`repro._lazy`): each name imports its submodule
when first read, so a server process never loads the client.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": (
            "AggregationService",
            "ServiceConfig",
            "Snapshot",
            "batch_seed",
            "batch_coin",
        ),
        ".replication": (
            "ReplicatedService",
            "ReplicaLink",
            "LocalReplica",
            "HttpReplica",
            "ACK_MODES",
            "REPLICATION_FAULT_POINTS",
        ),
        ".client": ("ResilientClient", "CircuitBreaker"),
        ".server": ("ServerConfig", "ServiceServer", "run_server"),
        ".wal": ("WriteAheadLog", "WalTear", "FSYNC_POLICIES"),
    },
)
