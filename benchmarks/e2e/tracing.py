"""Span recording around the public calls of each layer.

The benchmark never edits the program to trace it: :func:`install` wraps
public methods and functions at class or module level, from the
benchmark's own files, before any workload runs.  Each call becomes one
span ``(id, parent, name, start, end, info)``.  ``parent`` is the span
that was open on the same thread when the call began, so a layer's self
time is its duration minus that of its direct children.  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of a run.

``info`` is a small per-call fact read from the arguments or the result,
such as the WAL sequence an ingest acknowledged (which joins client-side
latency to server-side spans) or the number of reports a collect folded.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded call: (id, parent id or 0, name, start s, end s, info).
Span = Tuple[int, int, str, float, float, Any]

#: Span name prefix -> the module (layer) it belongs to.
LAYERS = {
    "AggregationService.": "service.core",
    "WriteAheadLog.": "service.wal",
    "JoinSession.": "api",
    "TemporalSession.": "temporal",
    "merge_tree": "distributed",
    "ShardCheckpoint.": "distributed",
    "HttpReplica.": "service.replication",
    "ReplicatedService.": "service.replication",
    "backend.": "backend",
    "find_frequent_items": "core",
    "fap_encode_reports": "core",
    "execute_unit": "experiments.sweep",
}


def layer_of(name: str) -> str:
    """The module a span name belongs to."""
    for prefix, layer in LAYERS.items():
        if name.startswith(prefix):
            return layer
    raise KeyError(name)


def _count(values: Any) -> int:
    size = getattr(values, "size", None)
    return int(size) if size is not None else len(values)


def _ack_info(args, kwargs, result) -> Optional[List[int]]:
    if not isinstance(result, dict):
        return None
    return [int(result["sequence"]), int(result["reports"])]


def _clients(index: int) -> Callable:
    def info(args, kwargs, result) -> int:
        return _count(args[index])

    return info


def _trial_clients(args, kwargs, result) -> int:
    # fused_encode_accumulate_trials(self, bt, st, x, rows, ...): rows is
    # (trials, clients), one encode per trial and client.
    return _count(args[4])


class Tracer:
    """In-memory span recorder shared by every wrapped call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        info: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                fact = None if info is None else info(args, kwargs, result)
                spans.append((span_id, parent, name, start, end, fact))

        setattr(owner, attr, traced)

    def wrap_function(self, module: str, attr: str, info: Optional[Callable] = None) -> None:
        """Wrap a module-level function everywhere ``repro`` bound its name.

        ``from x import f`` copies the binding, so the defining module
        and every ``repro`` module holding the same object are patched.
        """
        original = getattr(importlib.import_module(module), attr)
        holders = [
            mod
            for key, mod in list(sys.modules.items())
            if key.split(".")[0] == "repro" and getattr(mod, attr, None) is original
        ]
        for holder in holders:
            self.wrap(holder, attr, attr, info)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON (temp file + rename, so readers see it whole)."""
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(list(self.spans)))
        temporary.replace(path)


#: Modules that bind (by ``from x import f``) a function :func:`install` wraps.
_BINDING_MODULES = (
    "repro.core",
    "repro.core.plus",
    "repro.distributed",
    "repro.distributed.collectors",
    "repro.experiments.sweep",
    "repro.service",
    "repro.temporal",
)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports on.

    Call it after nothing else imports: module-level functions are
    patched in the ``repro`` modules loaded so far, so every module that
    binds one of them is imported first.
    """
    for module in _BINDING_MODULES:
        importlib.import_module(module)
    from repro.api import JoinSession
    from repro.backend.numpy_backend import NumpyBackend
    from repro.distributed import ShardCheckpoint
    from repro.service import AggregationService, HttpReplica, ReplicatedService
    from repro.service.wal import WriteAheadLog
    from repro.temporal import TemporalSession

    for method in ("ingest", "start", "publish", "estimate"):
        tracer.wrap(
            AggregationService,
            method,
            f"AggregationService.{method}",
            _ack_info if method == "ingest" else None,
        )
    tracer.wrap(WriteAheadLog, "append", "WriteAheadLog.append")
    tracer.wrap(WriteAheadLog, "recover", "WriteAheadLog.recover")
    tracer.wrap(JoinSession, "collect", "JoinSession.collect", _clients(2))
    tracer.wrap(JoinSession, "estimate", "JoinSession.estimate")
    tracer.wrap(JoinSession, "merge", "JoinSession.merge")
    tracer.wrap(TemporalSession, "collect", "TemporalSession.collect", _clients(2))
    tracer.wrap(TemporalSession, "roll_to", "TemporalSession.roll_to")
    tracer.wrap(TemporalSession, "window_entries", "TemporalSession.window_entries")
    tracer.wrap_function("repro.distributed.merge", "merge_tree", _clients(0))
    tracer.wrap(ShardCheckpoint, "flush", "ShardCheckpoint.flush")
    tracer.wrap(ShardCheckpoint, "load", "ShardCheckpoint.load")
    tracer.wrap(HttpReplica, "replicate", "HttpReplica.replicate")
    tracer.wrap(ReplicatedService, "apply_replication", "ReplicatedService.apply_replication")
    tracer.wrap(
        NumpyBackend, "fused_encode_accumulate", "backend.fused_encode", _clients(3)
    )
    tracer.wrap(
        NumpyBackend,
        "fused_encode_accumulate_trials",
        "backend.fused_encode",
        _trial_clients,
    )
    tracer.wrap(
        NumpyBackend, "fused_encode_shared_pass", "backend.fused_encode", _clients(3)
    )
    tracer.wrap(NumpyBackend, "fwht_batch_inplace", "backend.fwht")
    tracer.wrap_function("repro.core.estimator", "find_frequent_items")
    tracer.wrap_function("repro.core.fap", "fap_encode_reports")
    tracer.wrap_function("repro.experiments.sweep", "execute_unit")


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------
class SpanSet:
    """Spans of one process, indexed for duration and self-time queries."""

    def __init__(self, spans: Iterable[Sequence]) -> None:
        self.spans: List[Span] = [tuple(span) for span in spans]
        self.by_id = {span[0]: span for span in self.spans}
        self._child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1]:
                self._child_time[span[1]] += span[4] - span[3]

    @classmethod
    def load(cls, path: Path) -> "SpanSet":
        return cls(json.loads(path.read_text()))

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span[2] == name]

    def durations(self, name: str) -> List[float]:
        return [span[4] - span[3] for span in self.named(name)]

    def self_time(self, span: Span) -> float:
        return (span[4] - span[3]) - self._child_time.get(span[0], 0.0)

    def parent_name(self, span: Span) -> Optional[str]:
        parent = self.by_id.get(span[1])
        return None if parent is None else parent[2]

    def ancestor_names(self, span: Span) -> List[str]:
        names = []
        parent = self.by_id.get(span[1])
        while parent is not None:
            names.append(parent[2])
            parent = self.by_id.get(parent[1])
        return names

    def layer_self_time(self) -> Dict[str, float]:
        """Total self time per layer, seconds."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[layer_of(span[2])] += self.self_time(span)
        return dict(totals)

    def busy_time(self, names: Sequence[str], start: float, end: float) -> float:
        """Time top-level spans named ``names`` cover inside ``[start, end]``.

        Only parentless spans count: the service runs them one at a time
        on its single executor thread, so they never overlap.
        """
        busy = 0.0
        for span in self.spans:
            if span[1] == 0 and span[2] in names:
                busy += max(0.0, min(span[4], end) - max(span[3], start))
        return busy
