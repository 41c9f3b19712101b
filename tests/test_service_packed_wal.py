"""Tests for the perturbed-report WAL (format version 4, public coins).

The service perturbs each batch once, at ingest, and from then on logs,
replicates and replays only its public-coin Algorithm 1 reports — the
batch's coin plus one sign bit per report:

* **Byte identity** — a service and its quorum standby publish exactly
  the snapshot bytes of a reference that folds
  ``CoinReports.encode(values, ..., batch_coin(seed, s), batch_seed(seed,
  s))`` for record ``s`` into ``JoinSession`` shards, including a batch that
  spans several encode chunks.
* **No raw values** — every WAL frame and every replication frame has a
  header without a ``values`` key; each body is exactly ``⌈count/8⌉``
  bytes with zero padding bits.
* **Damage** — a flipped byte inside the binary body fails the crc, as
  a torn tail on disk and as a typed rejection in ``decode_frame``; a
  frame whose coin or sign body does not check out is refused by a
  standby before its WAL append, and cut as a tear on recovery.
* **Existing logs** — a version-3 log (packed codes) replays to the
  digest the version-3 service published, is upgraded to a version-4
  header on open, and takes coin frames after its code frames.  A
  version-4 log's bytes and the digest it replays to are pinned.
* **Conversion** — a version-2 raw-value WAL is refused with a typed
  error naming the converter, and after conversion republishes the
  digest the old service published for it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from repro.api import JoinSession
from repro.core import (
    DEFAULT_CHUNK_SIZE,
    CoinReports,
    SketchParams,
    encode_reports_packed,
    packed_report_dtype,
)
from repro.errors import ParameterError, WalFormatError
from repro.rng import ensure_rng
from repro.service import (
    AggregationService,
    LocalReplica,
    ReplicatedService,
    ServiceConfig,
    WriteAheadLog,
)
from repro.service.core import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    batch_coin,
    batch_seed,
)
from repro.service.wal import convert_raw_value_wal, decode_frame, encode_frame

TENANT = "acme"
K, M, EPSILON, SHARDS, SEED = 4, 64, 2.0, 3, 23


def make_config(data_dir, **overrides) -> ServiceConfig:
    options = dict(
        data_dir=data_dir,
        k=K,
        m=M,
        epsilon=EPSILON,
        num_shards=SHARDS,
        seed=SEED,
        checkpoint_interval=4,
    )
    options.update(overrides)
    return ServiceConfig(**options)


def make_batches():
    """Mixed sizes, one of them well past DEFAULT_CHUNK_SIZE."""
    rng = np.random.default_rng(9)
    sizes = [50, 20_000, 7, 300, 1, 129]
    assert max(sizes) > 2 * DEFAULT_CHUNK_SIZE
    return [
        (TENANT, "A" if i % 2 == 0 else "B", rng.integers(0, 5000, size=size))
        for i, size in enumerate(sizes)
    ]


def reference_payload(batches) -> bytes:
    """The snapshot bytes the service must publish, built with the public API.

    Record ``s`` is encoded with the public coin ``batch_coin(SEED, s)``
    and the flip seed ``batch_seed(SEED, s)`` and folded by
    ``JoinSession.collect`` on shard ``s % SHARDS``; the shards merge into
    one session exactly as the service's publish does.
    """
    params = SketchParams(K, M, EPSILON)
    coordinator = JoinSession(params, seed=SEED)
    shards = [coordinator.spawn_shard() for _ in range(SHARDS)]
    for sequence, (tenant, stream, values) in enumerate(batches):
        reports = CoinReports.encode(
            values,
            params,
            coordinator.pairs[0],
            batch_coin(SEED, sequence),
            batch_seed(SEED, sequence),
        )
        shards[sequence % SHARDS].collect(f"{tenant}/{stream}", reports)
    merged = JoinSession(params, pairs=coordinator.pairs)
    for shard in shards:
        merged.merge(shard.to_partial(include_timing=False))
    payload = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "wal_records": len(batches),
        "partial": merged.to_partial(include_timing=False).to_dict(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def frame_parts(frame: bytes):
    """``(header, body)`` of a frame, parsed by hand from the layout."""
    assert frame[:2] == b"RW"
    length, crc = struct.unpack_from("<II", frame, 2)
    payload = frame[10:]
    assert len(payload) == length and zlib.crc32(payload) == crc
    (head_length,) = struct.unpack_from("<I", payload, 0)
    header = json.loads(payload[4 : 4 + head_length])
    return header, payload[4 + head_length :]


def raw_frame(header: dict, body: bytes) -> bytes:
    """A well-crc'd frame around any header and body, built by hand."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = struct.pack("<I", len(head)) + head + body
    return b"RW" + struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def wal_frames(path):
    """Every frame of a v4 WAL file, split at the frame boundaries."""
    data = path.read_bytes()
    assert data[:4] == b"RWHD" and struct.unpack_from("<I", data, 4)[0] == 4
    frames, offset = [], 16
    while offset < len(data):
        (length,) = struct.unpack_from("<I", data, offset + 2)
        frames.append(data[offset : offset + 10 + length])
        offset += 10 + length
    return frames


def assert_perturbed_frame(frame: bytes) -> None:
    """A public-coin frame: names, coin, count, and one bit per report."""
    header, body = frame_parts(frame)
    assert "values" not in header
    assert set(header) <= {"tenant", "stream", "attribute", "count", "coin", "idem"}
    assert type(header["coin"]) is int and 0 <= header["coin"] < 2**64
    count = header["count"]
    assert len(body) == (count + 7) // 8
    if count % 8:
        assert body[-1] & ((1 << (8 - count % 8)) - 1) == 0  # zero padding


def assert_code_frame(frame: bytes) -> None:
    """A coin-less (version-3) frame: one packed code per report."""
    header, body = frame_parts(frame)
    assert "values" not in header
    assert set(header) <= {"tenant", "stream", "attribute", "count", "idem"}
    itemsize = packed_report_dtype(K, M).itemsize
    assert len(body) == header["count"] * itemsize
    codes = np.frombuffer(body, dtype=packed_report_dtype(K, M))
    assert int((codes >> 1).max()) < K * M


class _RecordingLink(LocalReplica):
    """A local link that keeps every replication payload it carried."""

    def __init__(self, service):
        super().__init__(service, name="standby")
        self.shipped = []

    def replicate(self, payload):
        self.shipped.append(dict(payload))
        return super().replicate(payload)


class TestPerturbedReportWal:
    def test_primary_and_standby_match_the_collect_reference(self, tmp_path):
        batches = make_batches()
        standby = ReplicatedService(
            make_config(tmp_path / "standby", max_batch_reports=65536),
            role="standby",
        )
        standby.start()
        link = _RecordingLink(standby)
        primary = ReplicatedService(
            make_config(tmp_path / "primary", max_batch_reports=65536),
            replicas=[link],
            ack_mode="quorum",
        )
        primary.start()
        for tenant, stream, values in batches:
            primary.ingest(tenant, stream, values)
        expected = reference_payload(batches)
        primary.publish()
        standby.publish()
        assert primary.snapshot.payload_bytes == expected
        assert standby.snapshot.payload_bytes == expected
        assert primary.snapshot.digest == hashlib.sha256(expected).hexdigest()

        # Nothing but perturbed reports on disk or on the wire.
        assert len(link.shipped) == len(batches)
        for node in ("primary", "standby"):
            frames = wal_frames(tmp_path / node / "wal.log")
            assert len(frames) == len(batches)
            for frame in frames:
                assert_perturbed_frame(frame)
        for payload in link.shipped:
            assert_perturbed_frame(base64.b64decode(payload["frame"]))
        primary.close()
        standby.close()

        # Replay folds the logged reports: the same bytes after restart.
        restarted = AggregationService(
            make_config(tmp_path / "standby", max_batch_reports=65536)
        )
        restarted.start()
        restarted.publish()
        assert restarted.snapshot.payload_bytes == expected
        restarted.close()

    def test_idempotency_key_rides_in_the_header(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        service.ingest(TENANT, "A", [1, 2, 3], idempotency_key="once")
        service.close()
        (frame,) = wal_frames(tmp_path / "wal.log")
        header, _ = frame_parts(frame)
        assert header == {
            "attribute": 0,
            "coin": batch_coin(SEED, 0),
            "count": 3,
            "idem": "once",
            "stream": "A",
            "tenant": TENANT,
        }

    def test_flipped_body_byte_is_a_tear_on_disk(self, tmp_path):
        batches = make_batches()[:3]
        service = AggregationService(
            make_config(tmp_path, max_batch_reports=65536)
        )
        service.start()
        for tenant, stream, values in batches:
            service.ingest(tenant, stream, values)
        service.close()
        path = tmp_path / "wal.log"
        frames = wal_frames(path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0x01  # inside the last frame's packed body
        path.write_bytes(bytes(data))

        wal = WriteAheadLog(path)
        records, tear = wal.recover()
        assert len(records) == 2
        assert tear is not None and "crc32" in tear.reason
        assert tear.offset == len(data) - len(frames[-1])
        assert path.stat().st_size == tear.offset  # the tear was trimmed
        wal.close()

    def test_flipped_body_byte_fails_decode_frame(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        service.ingest(TENANT, "A", list(range(40)))
        frame = service._records[0]
        service.close()
        record = decode_frame(frame)
        assert record["count"] == 40 and len(record["signs"]) == 5
        assert record.frame == frame
        damaged = frame[:-1] + bytes([frame[-1] ^ 0x80])
        with pytest.raises(ParameterError, match="crc32"):
            decode_frame(damaged)

    def test_standby_refuses_codes_outside_the_sketch(self, tmp_path):
        standby = ReplicatedService(make_config(tmp_path), role="standby")
        standby.start()
        codes = np.array([0, 2 * K * M], dtype=packed_report_dtype(K, M))
        frame = encode_frame(
            {"tenant": TENANT, "stream": "A", "attribute": 0, "reports": codes}
        )
        payload = {
            "epoch": 0,
            "sequence": 0,
            "frame": base64.b64encode(frame).decode("ascii"),
        }
        with pytest.raises(ParameterError, match="outside"):
            standby.apply_replication(payload)
        assert len(standby.wal) == 0  # refused before the append
        standby.close()

    @pytest.mark.parametrize(
        "coin, count, body, damage",
        [
            (5, 9, b"\x00", "does not hold"),  # 1 byte for 9 reports
            (5, 8, b"\x00\x00", "does not hold"),  # 2 bytes for 8 reports
            (5, 9, b"\x00\x01", "padding"),  # the last pad bit set
            (2**64, 8, b"\x00", "outside"),
            (-1, 8, b"\x00", "outside"),
            (1.5, 8, b"\x00", "integer"),
            ("5", 8, b"\x00", "integer"),
            (5, None, b"", "count"),
        ],
    )
    def test_standby_refuses_bad_coin_frames_before_append(
        self, tmp_path, coin, count, body, damage
    ):
        header = {"tenant": TENANT, "stream": "A", "attribute": 0, "coin": coin}
        if count is not None:
            header["count"] = count
        frame = raw_frame(header, body)
        standby = ReplicatedService(make_config(tmp_path), role="standby")
        standby.start()
        payload = {
            "epoch": 0,
            "sequence": 0,
            "frame": base64.b64encode(frame).decode("ascii"),
        }
        with pytest.raises(ParameterError, match=damage):
            standby.apply_replication(payload)
        assert len(standby.wal) == 0  # refused before the append
        standby.close()

        # The same frame on disk is a tear: recovery cuts it off.
        wal = WriteAheadLog(tmp_path / "disk" / "wal.log")
        wal.recover()
        wal.append(raw_frame(dict(header, coin=7, count=8), b"\x00"))
        wal.append(frame)
        wal.close()
        records, tear = WriteAheadLog(tmp_path / "disk" / "wal.log").recover()
        assert len(records) == 1 and records[0]["coin"] == 7
        assert tear is not None and "undecodable" in tear.reason

    def test_body_is_one_bit_per_report(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        values = np.arange(2048) % 997
        service.ingest(TENANT, "A", values)
        frame = service._records[0]
        service.close()
        header, body = frame_parts(frame)
        assert header["count"] == 2048 and len(body) == 256
        record = decode_frame(frame)
        params = SketchParams(K, M, EPSILON)
        cells, ys = CoinReports(
            record["coin"], record["count"], record["signs"], params
        ).cells_and_signs()
        pairs = JoinSession(params, seed=SEED).pairs[0]
        fresh = CoinReports.encode(
            values, params, pairs, batch_coin(SEED, 0), batch_seed(SEED, 0)
        )
        assert np.array_equal(cells, fresh.cells_and_signs()[0])
        assert np.array_equal(ys, fresh.cells_and_signs()[1])


# ---------------------------------------------------------------------------
# Version-3 logs (packed codes) replay and upgrade in place
# ---------------------------------------------------------------------------
#: sha256 of the ``wal.log`` the version-3 service wrote for
#: ``raw_value_batches()`` under ``make_config`` (odd batches carried the
#: idempotency key ``key<i>``); that service published
#: ``RAW_VALUE_SERVICE_DIGEST`` for it.
V3_WAL_SHA256 = "1aa9ac3316345d26edd5c92be9ead212373596f9f599d59fef853869fe13aa16"


def write_v3_wal(path) -> bytes:
    """The version-3 log for ``raw_value_batches()``: packed codes.

    Record ``s`` holds ``encode_reports_packed(values, ...,
    batch_seed(SEED, s))`` codes, as the version-3 service logged it.
    """
    params = SketchParams(K, M, EPSILON)
    pairs = JoinSession(params, seed=SEED).pairs[0]
    chunks = [struct.pack("<4sIQ", b"RWHD", 3, 0)]
    for sequence, (tenant, stream, values) in enumerate(raw_value_batches()):
        codes = encode_reports_packed(
            values, params, pairs, ensure_rng(batch_seed(SEED, sequence))
        ).codes
        record = {"tenant": tenant, "stream": stream, "attribute": 0, "reports": codes}
        if sequence % 2:
            record["idem"] = f"key{sequence}"
        chunks.append(encode_frame(record))
    path.parent.mkdir(parents=True, exist_ok=True)
    data = b"".join(chunks)
    path.write_bytes(data)
    return data


class TestVersion3Log:
    def test_v3_log_replays_upgrades_and_takes_coin_frames(self, tmp_path):
        path = tmp_path / "wal.log"
        data = write_v3_wal(path)
        assert hashlib.sha256(data).hexdigest() == V3_WAL_SHA256

        service = AggregationService(make_config(tmp_path))
        recovery = service.start()
        assert recovery["wal_records"] == 6 and recovery["torn_tail"] is None
        # The header says 4 before anything is appended; the frames are
        # untouched.
        upgraded = path.read_bytes()
        assert struct.unpack_from("<I", upgraded, 4)[0] == 4
        assert upgraded[16:] == data[16:]
        service.publish()
        assert service.snapshot.digest == RAW_VALUE_SERVICE_DIGEST
        old_frames = wal_frames(path)
        for frame in old_frames:
            assert_code_frame(frame)
        ack = service.ingest(TENANT, "B", [1], idempotency_key="key1")
        assert ack["deduplicated"] and ack["sequence"] == 1

        service.ingest(TENANT, "A", [4, 5, 6])
        service.publish()
        digest = service.snapshot.digest
        service.close()
        frames = wal_frames(path)
        assert frames[:6] == old_frames
        assert_perturbed_frame(frames[6])
        assert frame_parts(frames[6])[0]["coin"] == batch_coin(SEED, 6)

        # Mixed code and coin frames replay to the same bytes.
        restarted = AggregationService(make_config(tmp_path))
        restarted.start()
        restarted.publish()
        assert restarted.snapshot.digest == digest
        restarted.close()

    def test_read_only_recovery_leaves_a_v3_header(self, tmp_path):
        path = tmp_path / "wal.log"
        data = write_v3_wal(path)
        records, tear = WriteAheadLog(path).recover(truncate=False)
        assert len(records) == 6 and tear is None
        assert path.read_bytes() == data


# ---------------------------------------------------------------------------
# Version-4 logs are pinned: the frames and the cells replayed from them
# ---------------------------------------------------------------------------
#: sha256 of the version-4 ``wal.log`` this build writes for
#: ``raw_value_batches()`` under ``make_config`` (odd batches carry the
#: idempotency key ``key<i>``), and the snapshot digest it publishes.
#: The log pins the coins, the flips and the frame layout; the digest
#: after a restart pins the coin -> cell rule, which the log does not
#: store.  Either changing means existing logs would fold differently.
V4_WAL_SHA256 = "dc74d8ee0f4c18e9dc280b0ebf73a74bf27f69c89ce929208e2a5f825520fe0a"
V4_SERVICE_DIGEST = (
    "7097dceb34569b227e208fad89c66ffafa3ecc2d2c3c5f8ae066771e5e752920"
)


class TestVersion4Log:
    def test_v4_log_and_its_replay_are_pinned(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        for sequence, (tenant, stream, values) in enumerate(raw_value_batches()):
            key = f"key{sequence}" if sequence % 2 else None
            service.ingest(tenant, stream, values, idempotency_key=key)
        service.publish()
        assert service.snapshot.digest == V4_SERVICE_DIGEST
        service.close()
        data = (tmp_path / "wal.log").read_bytes()
        assert hashlib.sha256(data).hexdigest() == V4_WAL_SHA256

        restarted = AggregationService(make_config(tmp_path))
        restarted.start()
        restarted.publish()
        assert restarted.snapshot.digest == V4_SERVICE_DIGEST
        restarted.close()


# ---------------------------------------------------------------------------
# Raw-value logs: typed refusal and the one-shot converter
# ---------------------------------------------------------------------------
def raw_value_batches():
    rng = np.random.default_rng(9)
    return [
        (TENANT, "A" if i % 2 == 0 else "B", rng.integers(0, 5000, size=30 + 7 * i).tolist())
        for i in range(6)
    ]


#: Digest the version-2 service (which logged raw values) published for
#: ``raw_value_batches()`` under ``make_config`` — odd batches carried the
#: idempotency key ``key<i>``.
RAW_VALUE_SERVICE_DIGEST = (
    "86353bfcb1ccd32058836ea2c12b2b654c840a4369b8b6fed24c18c3c7642afc"
)


def write_raw_value_wal(path, *, version=2, epoch=0) -> bytes:
    """The WAL the version-2 service wrote for ``raw_value_batches()``.

    Version 2: a 16-byte ``RWHD`` header, then frames whose payload is
    the record's canonical JSON — raw ``values`` included.  Version 1 is
    the same frames with no file header.
    """
    chunks = [] if version == 1 else [struct.pack("<4sIQ", b"RWHD", 2, epoch)]
    for index, (tenant, stream, values) in enumerate(raw_value_batches()):
        record = {"tenant": tenant, "stream": stream, "attribute": 0, "values": values}
        if index % 2:
            record["idem"] = f"key{index}"
        payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        chunks.append(
            b"RW" + struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    data = b"".join(chunks)
    path.write_bytes(data)
    return data


class TestRawValueConversion:
    @pytest.mark.parametrize("version", [1, 2])
    def test_raw_value_wal_is_refused_untouched(self, tmp_path, version):
        path = tmp_path / "wal.log"
        data = write_raw_value_wal(path, version=version)
        service = AggregationService(make_config(tmp_path))
        with pytest.raises(WalFormatError, match="convert_raw_value_wal") as info:
            service.start()
        assert info.value.version == version
        assert path.read_bytes() == data  # not truncated as a "torn tail"

    def test_converted_wal_republishes_the_old_digest(self, tmp_path):
        write_raw_value_wal(tmp_path / "wal.log", epoch=2)
        config = make_config(tmp_path)
        summary = convert_raw_value_wal(config)
        assert summary["from_version"] == 2
        assert summary["records"] == 6 and summary["epoch"] == 2
        assert summary["torn_tail"] is None
        assert (tmp_path / "wal.log.v2").exists()
        for frame in wal_frames(tmp_path / "wal.log"):
            assert_code_frame(frame)

        service = AggregationService(config)
        recovery = service.start()
        assert recovery["wal_records"] == 6 and service.wal.epoch == 2
        service.publish()
        assert service.snapshot.digest == RAW_VALUE_SERVICE_DIGEST
        # Idempotency keys survived the conversion.
        ack = service.ingest(TENANT, "B", [1], idempotency_key="key1")
        assert ack["deduplicated"] and ack["sequence"] == 1
        service.close()

    def test_headerless_wal_converts_at_epoch_zero(self, tmp_path):
        write_raw_value_wal(tmp_path / "wal.log", version=1)
        summary = convert_raw_value_wal(make_config(tmp_path))
        assert (summary["from_version"], summary["epoch"]) == (1, 0)
        service = AggregationService(make_config(tmp_path))
        service.start()
        service.publish()
        assert service.snapshot.digest == RAW_VALUE_SERVICE_DIGEST
        service.close()

    def test_converter_refuses_a_current_wal(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        service.ingest(TENANT, "A", [1, 2])
        service.close()
        with pytest.raises(WalFormatError, match="nothing to convert"):
            convert_raw_value_wal(make_config(tmp_path))
