"""Append-only write-ahead log: the service's durability boundary.

Every report batch the service *acknowledges* is first appended here —
one crc32-framed record per batch — so a ``kill -9`` at any instant
loses at most work the client was never told succeeded.  A record holds
the batch's *perturbed* Algorithm 1 reports, never its raw values: the
service encodes each batch once, at ingest and before the append (see
:func:`repro.service.core.batch_coin` and
:func:`repro.service.core.batch_seed`), so replay, standby apply and
divergence repair fold the logged reports by accumulation alone and
draw no private randomness.

File format (version 4, little-endian)::

    +------+---------+------------+
    | RWHD | ver:u32 | epoch: u64 |   fixed 16-byte header, ver = 4
    +------+---------+------------+
    +----+----------+----------+------------------+
    | RW | len: u32 | crc: u32 | payload (len B)  |   one frame per record
    +----+----------+----------+------------------+

Frame payload::

    +------------+-----------------------+---------------------------+
    | hlen: u32  | header (hlen B, JSON) | body (len - 4 - hlen B)   |
    +------------+-----------------------+---------------------------+

``header`` is the canonical JSON (sorted keys, fixed separators) of the
record's scalar fields.  For a service batch those are ``tenant``,
``stream``, ``attribute``, ``count`` (reports in the body), ``coin``
and, for an idempotent submission, ``idem``.  A version-4 batch is a
set of *public-coin* reports (:class:`~repro.core.client.CoinReports`):
``coin`` is a 64-bit integer from which every report's sketch cell is
re-derived: the raw 64-bit words of ``numpy.random.PCG64(coin)`` in
order, ``cell = word % (k·m)``, a word ``>= 2**64 - 2**64 % (k·m)``
rejected and replaced by the next (``repro.core.client._coin_cells``;
it does not depend on any ``numpy.random.Generator`` method), and
``body`` is one sign bit per report — ``np.packbits`` of ``[y > 0]``,
exactly ``⌈count/8⌉`` bytes with zero padding bits.  At ``k = 18,
m = 1024`` a 2048-report frame is ~355 bytes, ~0.17 B per report.  The
coin is derived from ``(seed, sequence)`` under its own sha256 tag,
independent of the private flip seed, so nothing in a frame can
regenerate the flips.  ``crc`` is the crc32 of the whole payload, so a
flipped byte in header or body alike fails it.

A frame **without** ``coin`` is a version-3 record and decodes as such:
its body holds the ``count`` packed report codes
``2·(j·m + l) + [y > 0]`` back to back, in the narrowest unsigned dtype
holding ``2·k·m`` (:class:`~repro.core.client.PackedReports`; ``uint16``
at ``k = 18, m = 1024``), and the item size is the body length over
``count``.  Readers map either body with ``np.frombuffer``, so decoding
creates no Python object per report.  A record without reports has no
``count`` and an empty body.

**Version-3 logs** replay unchanged, with no converter: their frames
are coin-less.  :meth:`WriteAheadLog.recover` rewrites such a file's
16-byte header to version 4 (fsynced, as :meth:`WriteAheadLog.set_epoch`
does) before anything is appended, so a build that reads only version 3
refuses the file instead of dropping its coin frames as a torn tail.

The header carries the **fencing epoch** of the replication layer
(:mod:`repro.service.replication`): a monotonic counter bumped by every
standby promotion and rewritten in place (16 bytes at offset 0, fsynced)
by :meth:`WriteAheadLog.set_epoch`.  A node that recovers its WAL knows
which epoch it last served in, so a zombie primary cannot forget it was
fenced.

**Raw-value logs are refused.**  Format versions 1 (headerless) and 2
logged each batch's raw values as a JSON list and re-perturbed them on
every replay.  :meth:`WriteAheadLog.recover` raises
:class:`~repro.errors.WalFormatError` on such a file rather than reading
its JSON payloads as binary frames (which would drop the whole log as a
"torn tail").  :func:`convert_raw_value_wal` rewrites one in place, once,
encoding record ``s`` as version-3 codes with ``batch_seed(seed, s)`` —
exactly the randomness the old service drew when it folded that record
— so the converted log republishes the old service's snapshot bytes.

A crash mid ``write`` leaves a *torn tail*: a final frame whose magic,
length, crc or byte count does not check out.
:meth:`WriteAheadLog.recover` reads every intact frame, stops cleanly at
the first damaged one, and (by default) truncates the file back to the
last intact frame boundary so subsequent appends continue from a clean
edge.  Torn bytes are counted and reported — a tear can only hold a
record that was never acknowledged, so dropping it is correct, but it
must never be silent.

Durability knob (``fsync=``):

``"always"``
    ``os.fsync`` after every append — an acknowledged batch survives
    power loss, not just process death.  The default.
``"batch"``
    Data is flushed to the OS on every append (survives ``kill -9``)
    but fsynced only at :meth:`WriteAheadLog.sync` barriers — the
    service calls one before each checkpoint flush.
``"never"``
    No fsync at all; survives process death only.  For tests and
    benchmarks chasing the no-durability ceiling.

Fault points: ``service.wal.append`` fires before the frame is written.
``torn-write`` / ``corrupt`` specs damage the frame bytes (truncate /
flip one payload byte) and then raise
:class:`~repro.errors.InjectedCrashError`: a torn or corrupt frame can
only exist because the writer died mid-write, so the injection models
the whole event — damage on disk, process gone — and the chaos suite
restarts from the damaged file exactly as production would.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.client import CoinReports, encode_reports_packed
from ..errors import InjectedCrashError, ParameterError, WalFormatError
from ..reliability.faults import fault_point
from ..rng import ensure_rng

__all__ = [
    "WriteAheadLog",
    "WalRecord",
    "WalTear",
    "FSYNC_POLICIES",
    "encode_frame",
    "decode_frame",
    "convert_raw_value_wal",
]

#: Two magic bytes opening every frame.
_MAGIC = b"RW"

#: Frame header layout after the magic: payload length, payload crc32.
_HEADER = struct.Struct("<II")

#: Bytes before a frame's payload: magic plus header.
_FRAME_OVERHEAD = len(_MAGIC) + _HEADER.size

#: Payload prefix: byte length of the JSON header that follows it.
_HEADER_LENGTH = struct.Struct("<I")

#: File header: magic, format version, fencing epoch.
_FILE_MAGIC = b"RWHD"
_FILE_HEADER = struct.Struct("<4sIQ")
_WAL_VERSION = 4

#: Format versions :meth:`WriteAheadLog.recover` reads; a version-3 file
#: holds only coin-less frames and is upgraded in place on open.
_READ_VERSIONS = (3, 4)

#: Format versions whose frames carry raw values as JSON (refused).
_RAW_VALUE_VERSIONS = (1, 2)
_RAW_VALUE_REFUSAL = (
    "a raw-value log from an older build; this build logs only perturbed "
    "reports (format versions 3 and 4) and will not re-perturb raw values on "
    "replay — convert it once with "
    "repro.service.wal.convert_raw_value_wal(config)"
)

#: Byte widths a packed report body may use.
_ITEM_SIZES = (1, 2, 4, 8)

#: Supported fsync policies, strictest first.
FSYNC_POLICIES = ("always", "batch", "never")

#: Refuse to read frames claiming more than this many payload bytes —
#: a corrupt length field must not trigger a gigabyte allocation.
_MAX_FRAME_BYTES = 256 * 1024 * 1024


class WalRecord(dict):
    """One decoded record: its fields, plus the frame it was read from.

    A plain mapping of the header fields.  A public-coin record keeps
    ``coin`` and ``count`` and adds ``signs``, a read-only view of the
    packed sign bits; a version-3 record adds ``reports``, a read-only
    view of the packed codes.  :attr:`frame` holds the exact crc32-framed
    bytes on disk, which the service keeps for replication and compares
    in duplicate checks.
    """

    __slots__ = ("frame",)


def _canonical_json(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def encode_frame(record: Mapping[str, Any]) -> bytes:
    """The crc32-framed bytes of one record, exactly as appended.

    ``reports`` (optional) is either a
    :class:`~repro.core.client.CoinReports` batch — its ``coin`` and
    ``count`` go into the header and its sign bits become the body — or
    a 1-D unsigned integer array of version-3 codes, which becomes the
    body and sets ``count``.  Every other field goes into the
    canonical-JSON header.  Framing is a pure function of the record,
    but frames are built once — at ingest — and from then on stored,
    shipped and compared as bytes.
    """
    header = {key: value for key, value in record.items() if key != "reports"}
    for reserved in ("count", "coin"):
        if reserved in header:
            raise ParameterError(
                f"record field {reserved!r} is reserved: the frame codec sets "
                f"it from 'reports'"
            )
    body = b""
    reports = record.get("reports")
    if isinstance(reports, CoinReports):
        header["coin"] = reports.coin
        header["count"] = reports.count
        body = reports.body()
    elif reports is not None:
        reports = np.asarray(reports)
        if reports.ndim != 1 or reports.dtype.kind != "u":
            raise ParameterError(
                f"record reports must be a 1-D unsigned integer array, got "
                f"{reports.dtype} shaped {reports.shape}"
            )
        header["count"] = int(reports.size)
        body = reports.astype(reports.dtype.newbyteorder("<"), copy=False).tobytes()
    head = _canonical_json(header)
    payload = b"".join((_HEADER_LENGTH.pack(len(head)), head, body))
    return b"".join(
        (_MAGIC, _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF), payload)
    )


def _decode_payload(frame: bytes) -> WalRecord:
    """Parse a crc-verified v3/v4 frame; ``ValueError`` names the damage."""
    payload = memoryview(frame)[_FRAME_OVERHEAD:]
    if len(payload) < _HEADER_LENGTH.size:
        raise ValueError("payload shorter than its header-length prefix")
    (head_length,) = _HEADER_LENGTH.unpack_from(payload)
    body_start = _HEADER_LENGTH.size + head_length
    if body_start > len(payload):
        raise ValueError(
            f"header length {head_length} overruns the {len(payload)}-byte payload"
        )
    try:
        header = json.loads(str(payload[_HEADER_LENGTH.size : body_start], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"header is not valid JSON ({error})") from error
    if not isinstance(header, dict):
        raise ValueError(f"header must be a JSON object, got {type(header).__name__}")
    record = WalRecord(header)
    record.frame = frame
    body_length = len(payload) - body_start
    if "coin" in record:
        # Public-coin record: the coin, count and sign bits are checked
        # by the report type that owns the format.
        record["signs"] = CoinReports.check_body(
            record["coin"], record.get("count"), payload[body_start:]
        )
        return record
    count = record.pop("count", None)
    if count is None:
        if body_length:
            raise ValueError(f"{body_length}-byte body without a report count")
        return record
    if type(count) is not int or count < 0:
        raise ValueError(f"report count must be a non-negative integer, got {count!r}")
    itemsize = body_length // count if count else 1
    if itemsize not in _ITEM_SIZES or itemsize * count != body_length:
        raise ValueError(
            f"{body_length}-byte body does not hold {count} packed reports"
        )
    record["reports"] = np.frombuffer(
        frame, dtype=f"<u{itemsize}", count=count, offset=_FRAME_OVERHEAD + body_start
    )
    return record


def _decode_raw_value_payload(frame: bytes) -> dict:
    """Parse a crc-verified v1/v2 frame: its payload is one JSON record."""
    try:
        record = json.loads(frame[_FRAME_OVERHEAD:])
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"payload not valid JSON ({error})") from error
    if not isinstance(record, dict):
        raise ValueError(f"payload must be a JSON object, got {type(record).__name__}")
    return record


def decode_frame(frame: bytes) -> WalRecord:
    """Parse and integrity-check one shipped frame; returns its record.

    Raises :class:`~repro.errors.ParameterError` naming the damage for
    any frame that does not verify — truncated, bad magic, crc mismatch
    (header or body), trailing bytes, a body that does not hold its
    report count — so a replication stream corrupted in flight is
    rejected *before* it can touch a standby's WAL.
    """
    frame = bytes(frame)
    if len(frame) < _FRAME_OVERHEAD:
        raise ParameterError(
            f"replication frame truncated at {len(frame)} bytes (header needs "
            f"{_FRAME_OVERHEAD})"
        )
    if frame[:2] != _MAGIC:
        raise ParameterError("replication frame has bad magic")
    length, crc = _HEADER.unpack_from(frame, 2)
    if len(frame) - _FRAME_OVERHEAD != length:
        raise ParameterError(
            f"replication frame length mismatch ({len(frame) - _FRAME_OVERHEAD} "
            f"bytes of payload, header claims {length})"
        )
    if zlib.crc32(memoryview(frame)[_FRAME_OVERHEAD:]) & 0xFFFFFFFF != crc:
        raise ParameterError("replication frame payload crc32 mismatch")
    try:
        return _decode_payload(frame)
    except ValueError as error:
        raise ParameterError(f"replication frame payload undecodable: {error}") from error


def _scan(
    data: bytes, *, base: int = 0, decode: Callable[[bytes], dict] = _decode_payload
) -> Tuple[List[dict], int, Optional["WalTear"]]:
    """Parse frame ``data`` into records; stop at the first damaged frame.

    ``base`` is the file offset where ``data`` starts (the header size),
    so tear offsets name absolute positions an operator can seek to.
    The returned good offset is absolute too.  ``decode`` turns one
    crc-verified frame into its record (raw-value JSON for the
    converter, the v3 header-plus-body layout otherwise).
    """
    records: List[dict] = []
    offset = 0
    total = len(data)
    while offset < total:
        head = offset

        def tear(reason: str):
            return records, base + head, WalTear(base + head, total - head, reason)

        if total - offset < _FRAME_OVERHEAD:
            return tear("truncated frame header")
        if data[offset : offset + 2] != _MAGIC:
            return tear("bad frame magic")
        length, crc = _HEADER.unpack_from(data, offset + 2)
        if length > _MAX_FRAME_BYTES:
            return tear(f"implausible frame length {length}")
        end = offset + _FRAME_OVERHEAD + length
        if end > total:
            return tear(
                f"truncated payload ({total - offset - _FRAME_OVERHEAD} of "
                f"{length} bytes)"
            )
        frame = data[head:end]
        if zlib.crc32(memoryview(frame)[_FRAME_OVERHEAD:]) & 0xFFFFFFFF != crc:
            return tear("payload crc32 mismatch")
        try:
            records.append(decode(frame))
        except ValueError as error:
            return tear(f"undecodable payload ({error})")
        offset = end
    return records, base + offset, None


def _parse_file_header(
    path: Path, data: bytes
) -> Tuple[int, int, Optional["WalTear"], int]:
    """``(epoch, frames_offset, header_tear, version)`` of a log's bytes.

    Raises :class:`~repro.errors.WalFormatError` for raw-value (v1/v2)
    and unknown format versions.
    """
    if not data:
        return 0, 0, None, _WAL_VERSION
    if len(data) < _FILE_HEADER.size and _FILE_MAGIC.startswith(data[:4]):
        # Torn file header: the crash hit the 16-byte create write
        # itself, so no frame can follow it and no epoch was ever
        # durable — reinitialise at epoch 0, but report the tear like
        # any other damaged tail.
        return 0, len(data), WalTear(
            0,
            len(data),
            f"truncated file header ({len(data)} of {_FILE_HEADER.size} bytes)",
        ), _WAL_VERSION
    if data[:4] != _FILE_MAGIC:
        raise WalFormatError(path, 1, _RAW_VALUE_REFUSAL)
    _, version, epoch = _FILE_HEADER.unpack_from(data, 0)
    if version in _RAW_VALUE_VERSIONS:
        raise WalFormatError(path, version, _RAW_VALUE_REFUSAL)
    if version not in _READ_VERSIONS:
        raise WalFormatError(
            path,
            version,
            f"unsupported; this build reads versions "
            f"{', '.join(map(str, _READ_VERSIONS))}",
        )
    return int(epoch), _FILE_HEADER.size, None, int(version)


def _fsync_dir(path: Path) -> None:
    """Fsync ``path``'s directory so a create/replace survives power loss."""
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def convert_raw_value_wal(config) -> dict:
    """Rewrite a raw-value (v1/v2) WAL as a version-4 log, once, in place.

    ``config`` is the :class:`~repro.service.core.ServiceConfig` the old
    service ran with; the log is ``config.data_dir / "wal.log"``.  Record
    ``s`` is encoded the way the old service folded it — its values
    through Algorithm 1 with ``batch_seed(config.seed, s)``, as coin-less
    version-3 codes (:func:`~repro.core.client.encode_reports_packed`) — so the
    converted log republishes the old service's snapshot bytes, and the
    shard checkpoints beside it stay valid.  The fencing epoch and
    idempotency keys carry over; a torn tail is dropped, as recovery
    would have dropped it.  The original file is kept as
    ``wal.log.v<version>``, and the new log is fsynced and swapped in
    atomically.

    Returns ``{"from_version", "records", "epoch", "torn_tail",
    "backup"}``.  Raises :class:`~repro.errors.WalFormatError` when the
    log is not a raw-value log, and the ingest validation errors (e.g.
    :class:`~repro.errors.DomainError`) for a record no service could
    ever have folded.
    """
    from .core import AggregationService, batch_seed  # core imports this module

    path = Path(config.data_dir) / "wal.log"
    data = path.read_bytes()
    version, epoch, offset = 1, 0, 0
    if data[:4] == _FILE_MAGIC and len(data) >= _FILE_HEADER.size:
        _, version, epoch = _FILE_HEADER.unpack_from(data, 0)
        offset = _FILE_HEADER.size
    if not data or version not in _RAW_VALUE_VERSIONS:
        raise WalFormatError(path, version, "not a raw-value log; nothing to convert")
    records, _, tear = _scan(
        data[offset:], base=offset, decode=_decode_raw_value_payload
    )
    encoder = AggregationService(config)
    frames = []
    for sequence, old in enumerate(records):
        attribute = old.get("attribute", 0)
        values = encoder._check_batch(old["tenant"], old["stream"], old["values"], attribute)
        # Version-3 codes, drawn exactly as the old service folded them.
        reports = encode_reports_packed(
            values,
            encoder._params,
            encoder._coordinator.pairs[int(attribute)],
            ensure_rng(batch_seed(config.seed, sequence)),
            backend=encoder._coordinator.backend,
        )
        record = {
            "tenant": old["tenant"],
            "stream": old["stream"],
            "attribute": int(attribute),
            "reports": reports.codes,
        }
        if "idem" in old:
            record["idem"] = old["idem"]
        frames.append(encode_frame(record))
    backup = path.with_name(f"{path.name}.v{version}")
    shutil.copyfile(path, backup)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(_FILE_HEADER.pack(_FILE_MAGIC, _WAL_VERSION, epoch))
        fh.writelines(frames)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path)
    return {
        "from_version": int(version),
        "records": len(frames),
        "epoch": int(epoch),
        "torn_tail": None if tear is None else tear.to_dict(),
        "backup": str(backup),
    }


@dataclass(frozen=True)
class WalTear:
    """One damaged tail: where the log stopped replaying and why."""

    offset: int  #: byte offset of the first damaged frame
    dropped_bytes: int  #: bytes past the offset that were discarded
    reason: str  #: human-readable damage description

    def to_dict(self) -> dict:
        return {
            "offset": self.offset,
            "dropped_bytes": self.dropped_bytes,
            "reason": self.reason,
        }


class WriteAheadLog:
    """Crc32-framed append-only record log with torn-tail recovery.

    Construction does not touch the file; call :meth:`recover` (which
    creates it when absent) before the first :meth:`append` so the
    in-memory sequence counter agrees with the bytes on disk.
    """

    def __init__(self, path: Union[str, Path], *, fsync: str = "always") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ParameterError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = Path(path)
        self.fsync = fsync
        self._file = None
        self._sequence = 0  # records currently in the file
        self._recovered = False
        self._epoch = 0  # fencing epoch from the file header

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def recover(
        self, *, truncate: bool = True
    ) -> Tuple[List[WalRecord], Optional[WalTear]]:
        """Replay every intact record; optionally trim a damaged tail.

        Returns ``(records, tear)`` where ``tear`` is ``None`` for a
        clean log.  With ``truncate=True`` (default) the file is cut
        back to the last intact frame so :meth:`append` continues from a
        clean boundary; a tear holds at most never-acknowledged data, so
        trimming is safe.  With ``truncate=True`` a version-3 header is
        also rewritten to version 4 and fsynced, so the next append may
        carry a coin frame.  Also (re)initialises the sequence counter —
        call this once before the first append.  A raw-value (v1/v2) log
        raises :class:`~repro.errors.WalFormatError` naming
        :func:`convert_raw_value_wal`; the file is left untouched.
        """
        self.close()
        if self.path.exists():
            data = self.path.read_bytes()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            data = b""
        epoch, base, header_tear, version = _parse_file_header(self.path, data)
        records, good_offset, tear = _scan(data[base:], base=base)
        if header_tear is not None:
            tear = header_tear
        self._epoch = epoch
        if not data or (header_tear is not None and truncate):
            # A new log, or a torn-header reinit: write a fresh header.
            with open(self.path, "wb") as fh:
                fh.write(_FILE_HEADER.pack(_FILE_MAGIC, _WAL_VERSION, self._epoch))
                fh.flush()
                os.fsync(fh.fileno())
            _fsync_dir(self.path)
        elif truncate:
            if tear is not None:
                with open(self.path, "r+b") as fh:
                    fh.truncate(good_offset)
                    fh.flush()
                    os.fsync(fh.fileno())
            if version != _WAL_VERSION:
                # A version-3 log: its frames read as they are, but the
                # header must say 4 before a coin frame lands behind them.
                self._write_header(self._epoch)
        self._sequence = len(records)
        self._recovered = True
        return records, tear

    def replay(self) -> Iterator[Tuple[int, WalRecord]]:
        """``(sequence, record)`` pairs of every intact frame on disk."""
        if self.path.exists():
            data = self.path.read_bytes()
            _, base, _, _ = _parse_file_header(self.path, data)
            records, _, _ = _scan(data[base:], base=base)
            yield from enumerate(records)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _handle(self):
        if self._file is None:
            if not self._recovered:
                raise ParameterError(
                    f"WAL {self.path} used before recover(); call recover() so "
                    f"the sequence counter matches the bytes on disk"
                )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "ab")
        return self._file

    def append(self, record: Union[Mapping[str, Any], bytes]) -> int:
        """Durably append one record; returns its sequence number.

        ``record`` is either a mapping, framed here by
        :func:`encode_frame`, or an already-framed ``bytes`` object — a
        frame the caller built, or received and verified with
        :func:`decode_frame` — which is appended verbatim.  The returned
        sequence is the record's replay position (0-based).
        """
        frame = record if isinstance(record, bytes) else encode_frame(record)
        sequence = self._sequence
        spec = fault_point(
            "service.wal.append", sequence=sequence, bytes=len(frame)
        )
        fh = self._handle()
        if spec is not None and spec.kind in ("torn-write", "corrupt"):
            if spec.kind == "torn-write":
                damaged = frame[: max(1, len(frame) // 2)]
            else:
                flip = _FRAME_OVERHEAD  # first payload byte
                damaged = frame[:flip] + bytes([frame[flip] ^ 0xFF]) + frame[flip + 1 :]
            fh.write(damaged)
            fh.flush()
            os.fsync(fh.fileno())
            # A torn/corrupt frame only exists because the writer died
            # mid-write; model the whole event so the chaos suite
            # restarts from the damaged file exactly as production would.
            raise InjectedCrashError(
                "service.wal.append", {"sequence": sequence, "kind": spec.kind}
            )
        fh.write(frame)
        fh.flush()
        if self.fsync == "always":
            os.fsync(fh.fileno())
        self._sequence += 1
        return sequence

    def sync(self) -> None:
        """Durability barrier: fsync pending bytes (``batch`` policy)."""
        if self._file is not None and self.fsync != "never":
            os.fsync(self._file.fileno())

    def truncate_to(self, records: int) -> int:
        """Durably cut the log back to its first ``records`` records.

        Divergence repair for the replication layer
        (:meth:`repro.service.replication.ReplicatedService.apply_replication`):
        a demoted node whose un-replicated suffix conflicts with the
        promoted primary's history drops that suffix here, then applies
        the primary's frames from the cut.  Only ever shortens the log;
        the truncation is fsynced before returning so a crash cannot
        resurrect the dropped fork.
        """
        if not self._recovered:
            raise ParameterError(
                f"WAL {self.path} used before recover(); call recover() before "
                f"truncate_to() so frame boundaries are known"
            )
        records = int(records)
        if records < 0 or records > self._sequence:
            raise ParameterError(
                f"cannot truncate a {self._sequence}-record WAL to "
                f"{records} record(s)"
            )
        if records == self._sequence:
            return self._sequence
        self.close()  # flush the append handle before cutting beneath it
        data = self.path.read_bytes()
        offset = _FILE_HEADER.size if data[:4] == _FILE_MAGIC else 0
        for _ in range(records):
            length, _crc = _HEADER.unpack_from(data, offset + len(_MAGIC))
            offset += _FRAME_OVERHEAD + length
        with open(self.path, "r+b") as fh:
            fh.truncate(offset)
            fh.flush()
            os.fsync(fh.fileno())
        self._sequence = records
        return records

    # ------------------------------------------------------------------
    # Fencing epoch
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The fencing epoch persisted in the file header."""
        return self._epoch

    def set_epoch(self, epoch: int) -> int:
        """Persist a monotonic fencing-epoch bump in the file header.

        The header is rewritten in place (16 bytes at offset 0) and
        fsynced regardless of the ``fsync`` policy — an epoch bump is a
        promotion or a fencing adoption, and forgetting one across a
        power cut is exactly the split-brain the epoch exists to stop.
        Lowering the epoch is refused with a typed error.
        """
        if not self._recovered:
            raise ParameterError(
                f"WAL {self.path} used before recover(); call recover() before "
                f"set_epoch() so the header exists on disk"
            )
        epoch = int(epoch)
        if epoch < self._epoch:
            raise ParameterError(
                f"fencing epoch is monotonic: cannot lower {self._epoch} to {epoch}"
            )
        if epoch == self._epoch:
            return self._epoch
        self._write_header(epoch)
        self._epoch = epoch
        return self._epoch

    def _write_header(self, epoch: int) -> None:
        """Rewrite the 16-byte file header in place and fsync it."""
        with open(self.path, "r+b") as fh:
            fh.write(_FILE_HEADER.pack(_FILE_MAGIC, _WAL_VERSION, epoch))
            fh.flush()
            os.fsync(fh.fileno())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Records appended (valid only after :meth:`recover`)."""
        return self._sequence

    def size_bytes(self) -> int:
        """Current on-disk size of the log."""
        return self.path.stat().st_size if self.path.exists() else 0

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self.fsync != "never":
                os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WriteAheadLog(path={str(self.path)!r}, fsync={self.fsync!r}, "
            f"records={self._sequence})"
        )
