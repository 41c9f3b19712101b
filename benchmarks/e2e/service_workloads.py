"""The two service workloads: ``ingest`` and ``replicated-mixed``.

Every server is a real process started by ``launcher.py``.  The load
comes from this one asyncio process over at most two keep-alive
connections at a time, matching the two cores the benchmark is sized
for, so the numbers measure the service and not the scheduler.  A
closed loop keeps one request in flight per connection; the open-loop
writer sends each request when it falls due, whatever is still
unanswered.  Control calls (publish, status, digests) run between load
phases, on short connections of their own.
"""

from __future__ import annotations

import asyncio
import collections
import http.client
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import Outcome, cpu_seconds, median, peak_rss_mb, percentile, tail
from tracing import SpanSet

from repro.rng import ensure_rng

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

#: Reports per ``POST /v1/report`` batch, and the value domain they span.
BATCH_REPORTS = 2048
DOMAIN = 1 << 16
#: Distinct request bodies generated per run; request ``i`` sends body
#: ``i % BODY_POOL``, so streams A and B alternate.
BODY_POOL = 128
TENANT = "bench"
#: ``python -m repro.service`` flags of every server: the paper's sketch
#: shape and budget, 4 shards, a fsynced WAL.
SERVICE_FLAGS = ["--k", "18", "--m", "1024", "--epsilon", "4", "--shards", "4",
                 "--checkpoint-interval", "32", "--wal-fsync", "always"]

#: Fresh launches per run whose median is ``setup_s``.
SETUPS = 5
#: SIGKILL + relaunch cycles per ``ingest`` run whose median is
#: ``restart_s``, and whose median CPU is the second operation's cost.
RESTARTS = 5

#: ``ingest``: closed loop on this many connections.
INGEST_CONNECTIONS = 2
#: The load is a fixed report count, sized so it takes about
#: ``INGEST_LOAD_SHARE`` of the run at ``INGEST_NOMINAL_RATE`` reports/s.
#: A fixed count keeps the lifetime traffic that restart time, WAL bytes
#: and memory depend on the same on every run of every commit.
INGEST_NOMINAL_RATE = 400_000
INGEST_LOAD_SHARE = 0.5
#: The load is cut into this many slices, each followed by a publish and
#: a slice of snapshot queries on the then idle server.  Interleaving lets
#: both medians see the whole run; throughput is the median over slices,
#: so a short stall of the host moves one slice, not the result.
INGEST_SLICES = 10
#: The query slices together last this share of the run.
INGEST_QUERY_SHARE = 0.3

#: ``replicated-mixed``: one writer connection sends batches open-loop at
#: this many batches/s (below the seed's quorum-ack capacity); one reader
#: connection alternates window and snapshot queries in a closed loop.
MIXED_RATE = 25.0
#: Before that, a write-only closed loop on one connection posts this many
#: batches in as many slices; its median slice rate is the quorum-ack
#: throughput, and its median slice CPU per report the write cost.
MIXED_WRITE_ONLY_BATCHES = 256
MIXED_WRITE_ONLY_SLICES = 8
#: After it, a read-only closed loop of window queries on the then idle
#: pair prices a window query in primary CPU, median over the slices.
MIXED_READ_ONLY_SLICES = 4
MIXED_READ_ONLY_SLICE_S = 0.6
EPOCH_INTERVAL = 8
WINDOW_EPOCHS = 8
WINDOW_QUERY = 4
#: The open loop counts as fallen behind (run invalid) when its p90 send
#: lateness exceeds this.
MAX_LATENESS_S = 0.010
#: Traced runs sample the primary's /v1/status this often for the
#: standby's lag: WAL head minus the standby link's ship cursor.
LAG_SAMPLE_S = 0.25

SNAPSHOT_QUERY = f"/v1/estimate?tenant={TENANT}&kind=join&streams=A,B"
WINDOW_QUERY_TARGET = f"{SNAPSHOT_QUERY}&window={WINDOW_QUERY}"


def report_body(rng, stream: str) -> bytes:
    """One ``POST /v1/report`` body: a batch of uniform values.

    This is the only place the wire format is built, so a change of
    wire format swaps this function alone.
    """
    values = rng.integers(0, DOMAIN, size=BATCH_REPORTS)
    return json.dumps(
        {"tenant": TENANT, "stream": stream, "values": values.tolist()}
    ).encode("utf-8")


def body_pool(seed: int) -> List[bytes]:
    rng = ensure_rng(seed)
    return [report_body(rng, "AB"[index % 2]) for index in range(BODY_POOL)]


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
class Server:
    """One launcher process, named ``name``, serving ``data_dir``.

    ``flags`` are ``python -m repro.service`` flags.  ``work`` receives
    the process's stderr log and, when traced, its spans; several servers
    may share one data directory in turn.
    """

    def __init__(
        self, name: str, work: Path, data_dir: Path, flags: List[str], trace: bool
    ) -> None:
        self.name = name
        self.work = work
        self.data_dir = data_dir
        self.flags = ["--data-dir", str(data_dir), *flags]
        self.trace_file = work / f"{name}.spans.json" if trace else None
        self.process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def pid(self) -> int:
        return self.process.pid

    def launch(self, timeout: float = 120.0) -> float:
        """Start the process; seconds until ``/readyz`` answers 200."""
        self.data_dir.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(LAUNCHER), *self.flags]
        if self.trace_file is not None:
            command += ["--trace", str(self.trace_file)]
        start = time.perf_counter()
        with open(self.work / f"{self.name}.log", "wb") as log:
            self.process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log)
        deadline = start + timeout
        line = self._read_line(deadline)
        if not line.startswith("LISTENING "):
            raise RuntimeError(f"server {self.name} did not start: {line!r}")
        _, self.host, port = line.split()
        self.port = int(port)
        while True:
            try:
                status, _ = self.call("GET", "/readyz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - start
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server {self.name} never became ready")
            time.sleep(0.002)

    def _read_line(self, deadline: float) -> str:
        stream = self.process.stdout
        ready, _, _ = select.select([stream], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            raise RuntimeError("server printed nothing before the deadline")
        return stream.readline().decode("utf-8", "replace").strip()

    def call(self, method: str, path: str) -> Tuple[int, dict]:
        """One synchronous request on a fresh connection (control calls)."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(method, path)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        return response.status, (json.loads(raw) if raw else {})

    def spans(self, timeout: float = 60.0) -> SpanSet:
        """Ask a traced server to write its spans, then read them."""
        path = self.trace_file
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not path.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server wrote no spans")
            time.sleep(0.01)
        return SpanSet.load(path)

    def kill(self) -> None:
        """SIGKILL and reap (idempotent)."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
        if self.process is not None:
            self.process.wait()
            self.process.stdout.close()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class Connection:
    """Keep-alive HTTP/1.1 client over asyncio streams.

    ``send`` and ``receive`` are separate so an open loop can pipeline:
    the server answers requests on one connection in order.
    """

    def __init__(self, address: Tuple[str, int]) -> None:
        self.host, self.port = address
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        return self

    def send(self, method: str, target: str, body: bytes = b"") -> None:
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.writer.write(head + body)

    async def receive(self) -> Tuple[int, dict]:
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else {})

    async def request(self, method: str, target: str, body: bytes = b"") -> Tuple[int, dict]:
        self.send(method, target, body)
        await self.writer.drain()
        return await self.receive()

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


#: One answered request: (status, seconds, WAL sequence or None).
Answer = Tuple[int, float, Optional[int]]


async def closed_loop_reports(
    address: Tuple[str, int],
    pool: Sequence[bytes],
    batches: int,
    connections: int,
    offset: int = 0,
) -> List[Answer]:
    """Post ``batches`` report batches, each connection waiting for its ack.

    Batch ``i`` sends body ``offset + i`` of the pool (cyclically).
    """
    answers: List[Answer] = []
    indices = itertools.count()

    async def client() -> None:
        connection = await Connection(address).open()
        try:
            while True:
                index = next(indices)
                if index >= batches:
                    return
                start = time.perf_counter()
                status, body = await connection.request(
                    "POST", "/v1/report", pool[(offset + index) % len(pool)]
                )
                answers.append((status, time.perf_counter() - start, body.get("sequence")))
        finally:
            await connection.close()

    await asyncio.gather(*(client() for _ in range(connections)))
    return answers


async def closed_loop_queries(
    address: Tuple[str, int], targets: Sequence[str], until: float
) -> Dict[str, List[Answer]]:
    """Cycle through ``targets`` on one connection until ``until``."""
    answers: Dict[str, List[Answer]] = {target: [] for target in targets}
    connection = await Connection(address).open()
    try:
        for target in itertools.cycle(targets):
            if time.perf_counter() >= until:
                break
            start = time.perf_counter()
            status, _ = await connection.request("GET", target)
            answers[target].append((status, time.perf_counter() - start, None))
    finally:
        await connection.close()
    return answers


async def open_loop_mixed(
    primary: Tuple[str, int],
    pool: Sequence[bytes],
    offset: int,
    seconds: float,
    sample_lag: bool,
) -> dict:
    """Writer open loop beside a reader closed loop, for ``seconds``.

    Each write is timed from the instant it was due, so a stall also
    counts against every request queued behind it.
    """
    total = int(round(MIXED_RATE * seconds))
    writer = await Connection(primary).open()
    reader = await Connection(primary).open()
    due_times: collections.deque = collections.deque()
    lateness: List[float] = []
    acks: List[Answer] = []
    queries: Dict[str, List[Answer]] = {WINDOW_QUERY_TARGET: [], SNAPSHOT_QUERY: []}
    lags: List[int] = []
    start = time.perf_counter() + 0.01
    end = start + total / MIXED_RATE

    async def send_all() -> None:
        for index in range(total):
            due = start + index / MIXED_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due)
            due_times.append(due)
            writer.send("POST", "/v1/report", pool[(offset + index) % len(pool)])
            await writer.writer.drain()

    async def receive_all() -> None:
        for _ in range(total):
            status, body = await writer.receive()
            due = due_times.popleft()
            acks.append((status, time.perf_counter() - due, body.get("sequence")))

    async def read_loop() -> None:
        next_sample = start
        for target in itertools.cycle(queries):
            now = time.perf_counter()
            if now >= end:
                return
            if sample_lag and now >= next_sample:
                next_sample = now + LAG_SAMPLE_S
                _, head = await reader.request("GET", "/v1/status")
                cursors = [link["cursor"] for link in head["replicas"]]
                lags.append(int(head["wal_sequence"]) - min(cursors))
            began = time.perf_counter()
            status, _ = await reader.request("GET", target)
            queries[target].append((status, time.perf_counter() - began, None))

    try:
        await asyncio.gather(send_all(), receive_all(), read_loop())
    finally:
        await writer.close()
        await reader.close()
    return {
        "acks": acks,
        "queries": queries,
        "lateness": lateness,
        "lags": lags,
        "window": (start, time.perf_counter()),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _ok(answers: Sequence[Answer]) -> List[Answer]:
    return [answer for answer in answers if answer[0] == 200]


def _count_answers(outcome: Outcome, answers: Sequence[Answer], kind: str) -> None:
    """Count attempts; every non-200 answer fails the run's check."""
    failures = collections.Counter(answer[0] for answer in answers if answer[0] != 200)
    outcome.attempted += len(answers)
    outcome.failed += sum(failures.values())
    outcome.context["refused"] = (
        outcome.context.get("refused", 0) + failures[429] + failures[503]
    )
    outcome.check(f"every {kind} answered 200", not failures,
                  f"{len(answers)} sent, failures by status {dict(failures)}")


def _latency_metrics(outcome: Outcome, answers: Sequence[Answer]) -> None:
    """op_p50_ms / op_tail_ms from the acks; the tail's percentile is printed."""
    latencies = [answer[1] * 1e3 for answer in _ok(answers)]
    q, tail_ms = tail(latencies)
    outcome.metrics["op_p50_ms"] = median(latencies)
    outcome.metrics["op_tail_ms"] = tail_ms
    outcome.report["ack_p50_ms"] = (median(latencies), "ms")
    outcome.report[f"ack_p{q:g}_ms"] = (tail_ms, f"ms n={len(latencies)}")


def _per(cpu_s: float, scale: float, count: int) -> float:
    """``cpu_s`` per item, in ``1/scale`` seconds.

    A slice with no item answered already fails the run's checks; it is
    priced as one item so the result stays a finite number.
    """
    return cpu_s * scale / max(1, count)


def _file_bytes(paths) -> int:
    return sum(path.stat().st_size for path in paths)


def _launch_setups(launch, outcome: Outcome) -> List:
    """Launch ``SETUPS`` fresh deployments, keep the last; set ``setup_s``."""
    times = []
    kept: List = []
    for attempt in range(SETUPS):
        for server in kept:
            server.kill()
        start = time.perf_counter()
        kept = launch(attempt)
        times.append(time.perf_counter() - start)
    outcome.metrics["setup_s"] = median(times)
    outcome.report["setup_s"] = (median(times), f"s n={len(times)}")
    return kept


def run_ingest(work: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    """Single node, fsync=always, ring off: write path, queries, restart."""
    outcome = Outcome()
    pool = body_pool(seed)
    per_slice = max(8, round(
        INGEST_NOMINAL_RATE * INGEST_LOAD_SHARE * seconds / BATCH_REPORTS / INGEST_SLICES
    ))
    query_s = INGEST_QUERY_SHARE * seconds / INGEST_SLICES
    flags = [*SERVICE_FLAGS, "--seed", str(seed), "--epoch-interval", "0"]
    servers: List[Server] = []

    def launch(attempt: int) -> List[Server]:
        server = Server(f"ingest-{attempt}", work, work / f"ingest-{attempt}", flags, trace)
        servers.append(server)
        server.launch()
        return [server]

    acks: List[Answer] = []
    snapshot: List[Answer] = []
    rates, restarts, restart_cpu_s = [], [], []
    # Server CPU per slice: microseconds per acknowledged report in the
    # load slices, milliseconds per answered query in the query slices.
    report_cpu_us, query_cpu_ms = [], []
    try:
        (server,) = _launch_setups(launch, outcome)
        start = time.perf_counter()
        for index in range(INGEST_SLICES):
            cpu_before = cpu_seconds(server.pid)
            began = time.perf_counter()
            answers = asyncio.run(closed_loop_reports(
                server.address, pool, per_slice, INGEST_CONNECTIONS, index * per_slice
            ))
            written = BATCH_REPORTS * len(_ok(answers))
            rates.append(written / (time.perf_counter() - began))
            report_cpu_us.append(_per(cpu_seconds(server.pid) - cpu_before, 1e6, written))
            acks += answers
            status, published = server.call("POST", "/v1/publish")
            outcome.check(f"publish after load slice {index}", status == 200, f"HTTP {status}")
            cpu_before = cpu_seconds(server.pid)
            queries = asyncio.run(closed_loop_queries(
                server.address, [SNAPSHOT_QUERY], time.perf_counter() + query_s
            ))[SNAPSHOT_QUERY]
            query_cpu_ms.append(
                _per(cpu_seconds(server.pid) - cpu_before, 1e3, len(_ok(queries)))
            )
            snapshot += queries
        window = (start, time.perf_counter())
        rss_mb = peak_rss_mb(server.pid)
        if trace:
            outcome.spans["main"] = [server.spans()]
        server.kill()
        wal_bytes = _file_bytes([server.data_dir / "wal.log"])
        checkpoint_bytes = _file_bytes(server.data_dir.glob("shard-*.ckpt"))

        for attempt in range(RESTARTS):
            again = Server(f"restart-{attempt}", work, server.data_dir, flags, trace)
            servers.append(again)
            restarts.append(again.launch())
            restart_cpu_s.append(cpu_seconds(again.pid))
            status, boot = again.call("GET", "/v1/snapshot")
            outcome.check(
                f"restart {attempt} boot digest equals the digest published before SIGKILL",
                status == 200 and boot.get("digest") == published.get("digest"),
                f"{boot.get('digest')} vs {published.get('digest')}",
            )
            if trace:
                outcome.spans.setdefault("restart", []).append(again.spans())
            again.kill()
    finally:
        for each in servers:
            each.kill()

    _count_answers(outcome, acks, "report batch")
    _count_answers(outcome, snapshot, "snapshot query")
    reports = BATCH_REPORTS * len(_ok(acks))
    snapshot_ms = [answer[1] * 1e3 for answer in _ok(snapshot)]
    _latency_metrics(outcome, acks)
    outcome.metrics["throughput_per_s"] = median(rates)
    outcome.metrics["second_op_p50_ms"] = median(snapshot_ms)
    outcome.metrics["cpu_us_per_report"] = median(report_cpu_us)
    outcome.metrics["second_op_cpu_ms"] = median(restart_cpu_s) * 1e3
    outcome.metrics["rss_mb"] = rss_mb
    outcome.metrics["bytes_per_report"] = wal_bytes / reports
    outcome.report.update({
        "ingest_reports_per_s": (median(rates), f"1/s median of {INGEST_SLICES} slices"),
        "wal_bytes_per_report": (wal_bytes / reports, "B"),
        "restart_s": (median(restarts), f"s n={len(restarts)}"),
        "restart_cpu_ms": (median(restart_cpu_s) * 1e3, f"ms n={len(restart_cpu_s)}"),
        "server_cpu_us_per_report": (median(report_cpu_us),
                                     f"us median of {INGEST_SLICES} slices"),
        "server_cpu_ms_per_snapshot_query": (median(query_cpu_ms),
                                             f"ms median of {INGEST_SLICES} slices"),
        "server_rss_mb": (rss_mb, "MiB"),
        "snapshot_query_p50_ms": (median(snapshot_ms), f"ms n={len(snapshot_ms)}"),
    })
    outcome.context.update({
        "acks": _ok(acks),
        "window": window,
        "reports": reports,
        "appends": len(_ok(acks)),
        "wal_bytes": wal_bytes,
        "checkpoint_bytes": checkpoint_bytes,
    })
    return outcome


def run_replicated(work: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    """Primary + standby, quorum acks, ring on: reads beside open-loop writes."""
    outcome = Outcome()
    pool = body_pool(seed)
    flags = [*SERVICE_FLAGS, "--seed", str(seed), "--epoch-interval", str(EPOCH_INTERVAL),
             "--window-epochs", str(WINDOW_EPOCHS)]
    servers: List[Server] = []

    def launch(attempt: int) -> List[Server]:
        standby = Server(f"standby-{attempt}", work, work / f"standby-{attempt}",
                         [*flags, "--role", "standby"], trace)
        servers.append(standby)
        standby.launch()
        primary = Server(
            f"primary-{attempt}", work, work / f"primary-{attempt}",
            [*flags, "--role", "primary", "--ack-mode", "quorum",
             "--replica", f"{standby.host}:{standby.port}"],
            trace,
        )
        servers.append(primary)
        primary.launch()
        return [primary, standby]

    quorum_rates: List[float] = []
    report_cpu_us: List[float] = []
    query_cpu_ms: List[float] = []
    read_only: List[Answer] = []
    try:
        primary, standby = _launch_setups(launch, outcome)
        # Write-only phase: fills the epoch ring and publishes, so every
        # window query merges a full window and snapshot queries find both
        # streams.  It also prices a replicated write, in quorum-ack
        # throughput and server CPU: in the mixed phase the writer's rate
        # is fixed and the closed-loop reader keeps the servers busy
        # whatever a write costs.
        nodes = (primary, standby)
        per_slice = MIXED_WRITE_ONLY_BATCHES // MIXED_WRITE_ONLY_SLICES
        warmup: List[Answer] = []
        for index in range(MIXED_WRITE_ONLY_SLICES):
            cpu_before = sum(cpu_seconds(node.pid) for node in nodes)
            began = time.perf_counter()
            answers = asyncio.run(closed_loop_reports(
                primary.address, pool, per_slice, 1, index * per_slice
            ))
            written = BATCH_REPORTS * len(_ok(answers))
            quorum_rates.append(written / (time.perf_counter() - began))
            cpu_s = sum(cpu_seconds(node.pid) for node in nodes) - cpu_before
            report_cpu_us.append(_per(cpu_s, 1e6, written))
            warmup += answers
        _count_answers(outcome, warmup, "write-only batch")
        status, info = primary.call("POST", "/v1/publish")
        outcome.check("publish after the write-only phase", status == 200, str(info))
        mixed = asyncio.run(open_loop_mixed(
            primary.address, pool, MIXED_WRITE_ONLY_BATCHES, seconds, trace
        ))
        for _ in range(MIXED_READ_ONLY_SLICES):
            cpu_before = cpu_seconds(primary.pid)
            answers = asyncio.run(closed_loop_queries(
                primary.address, [WINDOW_QUERY_TARGET],
                time.perf_counter() + MIXED_READ_ONLY_SLICE_S,
            ))[WINDOW_QUERY_TARGET]
            query_cpu_ms.append(_per(cpu_seconds(primary.pid) - cpu_before, 1e3, len(_ok(answers))))
            read_only += answers
        digests = []
        for node in nodes:
            status, info = node.call("POST", "/v1/publish")
            digests.append(info.get("digest") if status == 200 else None)
        rss_mb = max(peak_rss_mb(node.pid) for node in nodes)
        if trace:
            outcome.spans["main"] = [primary.spans()]
            outcome.spans["standby"] = [standby.spans()]
    finally:
        for each in servers:
            each.kill()

    acks = mixed["acks"]
    _count_answers(outcome, acks, "report batch")
    for target, answers in mixed["queries"].items():
        _count_answers(outcome, answers, f"query {target}")
    _count_answers(outcome, read_only, "read-only window query")
    reports = BATCH_REPORTS * len(_ok(acks))
    all_reports = reports + BATCH_REPORTS * len(_ok(warmup))
    elapsed = mixed["window"][1] - mixed["window"][0]
    late_q, late_s = tail(mixed["lateness"])
    window_ms = [a[1] * 1e3 for a in _ok(mixed["queries"][WINDOW_QUERY_TARGET])]
    snapshot_ms = [a[1] * 1e3 for a in _ok(mixed["queries"][SNAPSHOT_QUERY])]
    wal_bytes = _file_bytes([primary.data_dir / "wal.log"])
    outcome.check("primary and standby publish the same digest",
                  digests[0] is not None and digests[0] == digests[1], str(digests))
    outcome.check("window and snapshot queries answered", bool(window_ms and snapshot_ms),
                  f"window n={len(window_ms)} snapshot n={len(snapshot_ms)}")
    p90_late = percentile(mixed["lateness"], 90.0)
    outcome.check("open-loop generator kept its schedule (run is scoreable)",
                  p90_late <= MAX_LATENESS_S, f"p90 lateness {p90_late * 1e3:.2f} ms")
    _latency_metrics(outcome, acks)
    win_q, win_tail = tail(window_ms)
    outcome.metrics["throughput_per_s"] = median(quorum_rates)
    outcome.metrics["second_op_p50_ms"] = median(window_ms)
    outcome.metrics["cpu_us_per_report"] = median(report_cpu_us)
    outcome.metrics["second_op_cpu_ms"] = median(query_cpu_ms)
    outcome.metrics["rss_mb"] = rss_mb
    outcome.metrics["bytes_per_report"] = wal_bytes / all_reports
    outcome.report.update({
        "quorum_reports_per_s": (median(quorum_rates), "1/s write-only closed loop, "
                                 f"median of {MIXED_WRITE_ONLY_SLICES} slices"),
        "acked_reports_per_s": (reports / elapsed, f"1/s offered {MIXED_RATE:g} batches/s"),
        "server_cpu_us_per_report": (median(report_cpu_us), "us both nodes, write-only "
                                     f"phase, median of {MIXED_WRITE_ONLY_SLICES} slices"),
        "server_cpu_ms_per_window_query": (median(query_cpu_ms), "ms primary, read-only "
                                           f"phase, median of {MIXED_READ_ONLY_SLICES} slices"),
        "server_rss_mb": (rss_mb, "MiB"),
        "window_query_p50_ms": (median(window_ms), f"ms n={len(window_ms)}"),
        f"window_query_p{win_q:g}_ms": (win_tail, f"ms n={len(window_ms)}"),
        "snapshot_query_p50_ms": (median(snapshot_ms), f"ms n={len(snapshot_ms)}"),
        f"generator_lateness_p{late_q:g}_ms": (late_s * 1e3, "ms"),
    })
    outcome.context.update({
        "acks": _ok(acks),
        "window": mixed["window"],
        "reports": all_reports,
        "appends": len(_ok(acks)) + len(_ok(warmup)),
        "wal_bytes": wal_bytes,
        "checkpoint_bytes": _file_bytes(primary.data_dir.glob("shard-*.ckpt")),
        "lags": mixed["lags"],
        "window_queries": len(window_ms),
    })
    return outcome
