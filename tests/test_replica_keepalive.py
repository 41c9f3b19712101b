"""``HttpReplica`` ships every frame over one keep-alive connection.

A primary replicating over HTTP used to open (and close) one TCP
connection per shipped WAL frame.  These tests run a real standby
``ServiceServer`` on its own event-loop thread and a synchronous primary
in the test thread, count the ``http.client.HTTPConnection`` objects the
link builds, and check that a standby restart mid-stream — which breaks
the link's connection under it — still converges to the fault-free
digest.
"""

from __future__ import annotations

import asyncio
import http.client
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ReplicationQuorumError
from repro.service import (
    AggregationService,
    HttpReplica,
    ReplicatedService,
    ServerConfig,
    ServiceConfig,
    ServiceServer,
)

TENANT = "acme"


def make_config(data_dir) -> ServiceConfig:
    return ServiceConfig(
        data_dir=data_dir,
        k=3,
        m=32,
        epsilon=2.0,
        num_shards=2,
        seed=11,
        checkpoint_interval=4,
    )


BATCHES = [
    ("A" if index % 2 == 0 else "B", values)
    for index, values in enumerate(
        np.random.default_rng(9).integers(0, 48, size=(10, 25))
    )
]


def reference_digest() -> str:
    """Digest of a single node that ingested every batch, no replication."""
    with tempfile.TemporaryDirectory(prefix="repro-keepalive-ref-") as tmp:
        service = AggregationService(make_config(Path(tmp)))
        service.start()
        for stream, values in BATCHES:
            service.ingest(TENANT, stream, values)
        digest = service.publish()["digest"]
        service.close()
    return digest


class StandbyServer:
    """A standby node served over HTTP from a background event-loop thread."""

    def __init__(self, data_dir: Path, port: int = 0) -> None:
        self.service = ReplicatedService(make_config(data_dir), role="standby")
        self.server = ServiceServer(
            self.service, ServerConfig(port=port, watchdog_interval=0.05)
        )
        self.loop = None
        started = threading.Event()

        async def serve() -> None:
            self.loop = asyncio.get_running_loop()
            await self.server.start()
            started.set()
            await self.server.serve_until_closed()

        self.thread = threading.Thread(target=asyncio.run, args=(serve(),), daemon=True)
        self.thread.start()
        assert started.wait(30), "standby did not start"
        self.port = self.server.address[1]

    def stop(self) -> None:
        if self.thread.is_alive():
            asyncio.run_coroutine_threadsafe(self.server.shutdown(), self.loop).result(30)
            self.thread.join(30)

    def drop_connections(self) -> None:
        """Close every open client connection, as an idle timeout would."""

        async def drop() -> None:
            for writer in list(self.server._connections):
                writer.close()
                await writer.wait_closed()

        asyncio.run_coroutine_threadsafe(drop(), self.loop).result(30)


@pytest.fixture
def connections(monkeypatch):
    """Count ``http.client.HTTPConnection`` constructions."""
    built = []

    class Counted(http.client.HTTPConnection):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(http.client, "HTTPConnection", Counted)
    return built


def start_primary(data_dir: Path, port: int) -> ReplicatedService:
    primary = ReplicatedService(
        make_config(data_dir),
        role="primary",
        replicas=[HttpReplica("127.0.0.1", port)],
        ack_mode="quorum",
    )
    primary.start()
    return primary


def test_frames_share_one_connection(tmp_path, connections):
    standby = StandbyServer(tmp_path / "standby")
    try:
        primary = start_primary(tmp_path / "primary", standby.port)
        for index, (stream, values) in enumerate(BATCHES):
            primary.ingest(TENANT, stream, values, idempotency_key=f"k{index}")
        assert len(connections) == 1
        assert primary.publish()["digest"] == reference_digest()
        link = primary.replicas[0]
        primary.close()
        assert link._connection is None  # closing the service closes its links
    finally:
        standby.stop()
    assert standby.service.snapshot.digest == reference_digest()


def test_standby_restart_mid_stream_converges(tmp_path, connections):
    standby = StandbyServer(tmp_path / "standby")
    primary = start_primary(tmp_path / "primary", standby.port)
    half = len(BATCHES) // 2
    try:
        for index, (stream, values) in enumerate(BATCHES[:half]):
            primary.ingest(TENANT, stream, values, idempotency_key=f"k{index}")
        port = standby.port
        standby.stop()

        # Standby down: the kept connection is dead and a fresh one is
        # refused, so the round misses quorum; the batch stays durable.
        stream, values = BATCHES[half]
        with pytest.raises(ReplicationQuorumError):
            primary.ingest(TENANT, stream, values, idempotency_key=f"k{half}")

        standby = StandbyServer(tmp_path / "standby", port=port)
        ack = primary.ingest(TENANT, stream, values, idempotency_key=f"k{half}")
        assert ack["deduplicated"] is True
        for index, (stream, values) in enumerate(BATCHES[half + 1 :], start=half + 1):
            primary.ingest(TENANT, stream, values, idempotency_key=f"k{index}")
        # One connection before the restart, one refused during it, one after.
        assert len(connections) == 3
        assert standby.service.status()["wal_sequence"] == len(BATCHES)
        digest = primary.publish()["digest"]
    finally:
        primary.close()
        standby.stop()
    assert digest == reference_digest()
    assert standby.service.snapshot.digest == digest


def test_connection_closed_while_idle_is_reopened(tmp_path, connections):
    standby = StandbyServer(tmp_path / "standby")
    try:
        primary = start_primary(tmp_path / "primary", standby.port)
        stream, values = BATCHES[0]
        primary.ingest(TENANT, stream, values, idempotency_key="k0")
        # The standby drops the idle connection (as its request timeout
        # would); the next frame reconnects and is sent once more.
        standby.drop_connections()
        for index, (stream, values) in enumerate(BATCHES[1:], start=1):
            primary.ingest(TENANT, stream, values, idempotency_key=f"k{index}")
        assert len(connections) == 2
        assert standby.service.status()["wal_sequence"] == len(BATCHES)
        primary.close()
    finally:
        standby.stop()
    assert standby.service.snapshot.digest == reference_digest()
