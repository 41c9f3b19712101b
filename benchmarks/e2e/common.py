"""Shared pieces of the benchmark: statistics, /proc counters, run outcome."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from tracing import SpanSet

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)``: the highest percentile with ten samples beyond it."""
    for q in TAIL_PERCENTILES:
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, percentile(values, q)
    return 50.0, median(values)


def cpu_seconds(pid: int) -> float:
    """utime + stime of process ``pid``, seconds."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of process ``pid``, MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Outcome:
    """What one workload pass measured.

    ``metrics`` holds the end-to-end slots the benchmark gates on and the
    demoted wall-clock ones (``layers.DEMOTED``);
    ``report`` the workload's own named metrics, printed for people;
    ``spans`` the traced processes' spans by role (traced passes only);
    ``context`` the client-side facts per-layer metrics join against.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    spans: Dict[str, List[SpanSet]] = field(default_factory=dict)
    context: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)
