"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Workloads: ``ingest`` (single-node service write path, snapshot queries
and SIGKILL restart), ``replicated-mixed`` (primary + standby, open-loop
writes beside window and snapshot queries) and ``paper-batch``
(LDPJoinSketch / LDPJoinSketch+ and a sweep grid, in process).
``WORKLOADS.md`` beside this file says why each was chosen, its traffic
shape, and what every metric means on it.

The run prints each workload metric by name with its unit, every
correctness check, and as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the workload runs twice for half the time each, untraced
then traced, and the metrics are the per-layer ones, including the
tracing overhead (traced over untraced ``op_p50_ms``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from layers import DEMOTED, EXACT_COUNTS, PER_LAYER, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for server data directories, logs and spans, plus the
#: exact-count record that later runs compare against.
WORK = ROOT / ".bench_work"

#: The end-to-end metrics every workload reports, with their units.  The
#: wall-clock throughput and latencies are per-layer ``demoted.*`` metrics
#: instead (see ``layers.DEMOTED``): on a shared two-CPU host they spread
#: more than any allowed bound from run to run.
END_TO_END = [
    ("setup_s", "s"),
    ("cpu_us_per_report", "us"),
    ("second_op_cpu_ms", "ms"),
    ("rss_mb", "MiB"),
    ("bytes_per_report", "B"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument(
        "--workload", required=True, choices=["ingest", "replicated-mixed", "paper-batch"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _code_fingerprint() -> str:
    """Digest of the program and benchmark sources (exact-count key)."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_exact_counts(key: str, counts: dict) -> list:
    """Compare ``counts`` with an earlier run of the same code and inputs."""
    record_path = WORK / "exact-counts.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    if key not in record:
        record[key] = counts
        record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
        return [(f"exact count {name} recorded for later runs", True, repr(value))
                for name, value in counts.items()]
    return [
        (f"exact count {name} repeats across runs", record[key][name] == value,
         f"{value!r} now, {record[key][name]!r} before")
        for name, value in counts.items()
    ]


def _print_checks(checks) -> None:
    for name, ok, detail in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name} ({detail})")


def _print_outcome(label: str, outcome) -> None:
    print(f"== {label}")
    for name, (value, unit) in outcome.report.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, unit in END_TO_END:
        print(f"  [e2e] {name} = {outcome.metrics[name]:.6g} {unit}")
    for name, unit in DEMOTED:
        print(f"  [demoted] {name} = {outcome.metrics[name]:.6g} {unit}")
    _print_checks(outcome.checks)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from paper_workload import run_paper
    from service_workloads import run_ingest, run_replicated

    run = {"ingest": run_ingest, "replicated-mixed": run_replicated,
           "paper-batch": run_paper}[args.workload]
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if not args.trace:
            outcome = run(work, args.seed, args.seconds, False)
            _print_outcome(f"{args.workload} seed={args.seed}", outcome)
            correct = outcome.correct
            attempted, failed = outcome.attempted, outcome.failed
            metrics = {name: (outcome.metrics[name], unit) for name, unit in END_TO_END}
        else:
            half = args.seconds / 2
            (work / "untraced").mkdir()
            (work / "traced").mkdir()
            untraced = run(work / "untraced", args.seed, half, False)
            _print_outcome(f"{args.workload} seed={args.seed} untraced", untraced)
            traced = run(work / "traced", args.seed, half, True)
            _print_outcome(f"{args.workload} seed={args.seed} traced", traced)
            values = per_layer(traced, untraced)
            exact = {name: values[name] for name in EXACT_COUNTS}
            key = f"{args.workload}|{args.seed}|{half:g}|{_code_fingerprint()}"
            checks = _check_exact_counts(key, exact) + [(
                "WAL bytes equal in the untraced and traced passes",
                untraced.context.get("wal_bytes") == traced.context.get("wal_bytes"),
                f"{untraced.context.get('wal_bytes')} vs {traced.context.get('wal_bytes')}",
            )]
            traced.checks += checks
            _print_checks(checks)
            for name, unit in PER_LAYER:
                print(f"  [layer] {name} = {values[name]:.6g} {unit}")
            correct = untraced.correct and traced.correct
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
