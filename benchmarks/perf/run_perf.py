"""CLI entry point of the perf suite — emits / validates ``BENCH_perf.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py            # full, 1M clients
    PYTHONPATH=src python benchmarks/perf/run_perf.py --quick    # CI smoke, 20k
    PYTHONPATH=src python benchmarks/perf/run_perf.py --validate BENCH_perf.json

``--quick`` runs every section at a small population so CI finishes in
seconds; the checked-in ``BENCH_perf.json`` at the repo root is produced by
a full run and records the pre-PR baseline next to the fused-path numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_suite import FULL_N, run_suite, validate_payload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small-n smoke mode")
    parser.add_argument(
        "--full-backends",
        action="store_true",
        help="measure the backends section at the full n = 1M even with "
        "--quick (CI's numba leg uses this so the compiled-vs-reference "
        "floor is enforced at the headline population)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=(
            "output path (default: repo-root BENCH_perf.json for full runs, "
            "bench_perf_quick.json in the working directory for --quick, so a "
            "smoke run never clobbers the recorded full-run trajectory)"
        ),
    )
    parser.add_argument(
        "--validate",
        type=Path,
        default=None,
        metavar="FILE",
        help="validate an existing payload instead of benchmarking",
    )
    parser.add_argument(
        "--require-full",
        action="store_true",
        help="with --validate: additionally demand a full-mode payload "
        "(guards the checked-in trajectory file against quick-mode clobbers)",
    )
    parser.add_argument(
        "--min-sweep-speedup",
        type=float,
        default=None,
        metavar="X",
        help="with --validate: fail unless the sweep section's engine "
        "speedup over the serial harness is at least X (the CI floor) and "
        "its parallel run was bit-identical to serial",
    )
    parser.add_argument(
        "--min-numba-encode-speedup",
        type=float,
        default=None,
        metavar="X",
        help="with --validate: when the payload carries numba backend rows, "
        "fail unless the numba fused-encode kernel reaches at least X times "
        "the numpy kernel's throughput (vacuous when numba was unavailable "
        "at measurement time)",
    )
    parser.add_argument(
        "--require-numba",
        action="store_true",
        help="with --validate: fail unless the payload actually carries "
        "numba backend rows (numba_available == 1) — guards CI's numba leg "
        "against a broken numba install silently voiding the floor",
    )
    parser.add_argument(
        "--min-sharded-ingest-speedup",
        type=float,
        default=None,
        metavar="X",
        help="with --validate: fail unless the distributed section's "
        "parallel ingest capacity reaches at least X times the "
        "single-aggregator throughput and the merged accumulators were "
        "byte-identical to the single-aggregator run",
    )
    parser.add_argument(
        "--min-service-ingest",
        type=float,
        default=None,
        metavar="X",
        help="with --validate: fail unless the service section sustained at "
        "least X acknowledged reports/sec through the online HTTP server "
        "(every report WAL-durable before its ack)",
    )
    parser.add_argument(
        "--min-quorum-ingest",
        type=float,
        default=None,
        metavar="X",
        help="with --validate: fail unless the replicated (quorum-ack) leg "
        "sustained at least X acknowledged reports/sec — each ack held for "
        "the standby's WAL apply — and both nodes published byte-identical "
        "snapshots",
    )
    parser.add_argument(
        "--min-window-estimate",
        type=float,
        default=None,
        metavar="X",
        help="with --validate: fail unless the windowed (temporal) leg "
        "sustained at least X sliding-window estimates/sec on an idle, "
        "unchanged ring (repeat queries answer from the window cache)",
    )
    parser.add_argument(
        "--min-recover",
        type=float,
        default=None,
        metavar="X",
        help="with --validate: fail unless a cold in-process restart of the "
        "service recovered at least X WAL reports/sec over the data "
        "directory the ingest leg left behind",
    )
    parser.add_argument(
        "--max-wal-bytes-per-report",
        type=float,
        default=None,
        metavar="B",
        help="with --validate: fail unless the ingest leg's WAL held at most "
        "B bytes per logged report (a public coin plus one sign bit each)",
    )
    parser.add_argument(
        "--max-cold-start-cpu-ms",
        type=float,
        default=None,
        metavar="MS",
        help="with --validate: fail unless a real `python -m repro.service` "
        "restart over the ingest leg's data directory used at most MS "
        "milliseconds of process CPU before /readyz answered (median of "
        "the cold_start launches)",
    )
    parser.add_argument(
        "--min-fagms-update",
        type=float,
        default=None,
        metavar="X",
        help="with --validate: fail unless Fast-AGMS update_batch folded at "
        "least X zipf-1.5 values/sec (the baselines section; hashing runs "
        "once per distinct value)",
    )
    args = parser.parse_args(argv)

    # Flags are mode-specific; a CI edit that drops --validate must fail
    # loudly instead of silently enforcing nothing.
    if args.validate is None:
        for flag, given in (
            ("--require-full", args.require_full),
            ("--min-sweep-speedup", args.min_sweep_speedup is not None),
            ("--min-numba-encode-speedup", args.min_numba_encode_speedup is not None),
            ("--require-numba", args.require_numba),
            (
                "--min-sharded-ingest-speedup",
                args.min_sharded_ingest_speedup is not None,
            ),
            ("--min-service-ingest", args.min_service_ingest is not None),
            ("--min-quorum-ingest", args.min_quorum_ingest is not None),
            ("--min-window-estimate", args.min_window_estimate is not None),
            ("--min-recover", args.min_recover is not None),
            (
                "--max-wal-bytes-per-report",
                args.max_wal_bytes_per_report is not None,
            ),
            ("--max-cold-start-cpu-ms", args.max_cold_start_cpu_ms is not None),
            ("--min-fagms-update", args.min_fagms_update is not None),
        ):
            if given:
                parser.error(f"{flag} only applies with --validate")
    elif args.full_backends or args.quick:
        parser.error("--quick/--full-backends only apply when benchmarking")

    if args.validate is not None:
        payload = json.loads(args.validate.read_text())
        validate_payload(payload)
        if args.require_full and payload["mode"] != "full":
            print(f"[fail] {args.validate} holds a {payload['mode']!r}-mode payload, expected 'full'")
            return 1
        if args.min_sweep_speedup is not None:
            sweep = payload["sections"]["sweep"]
            if sweep["speedup"] < args.min_sweep_speedup:
                print(
                    f"[fail] sweep speedup {sweep['speedup']:.2f}x regressed below "
                    f"the {args.min_sweep_speedup:.2f}x floor"
                )
                return 1
            # The default (exact) trial axis is a bit-identical re-routing
            # of the serial harness, so its throughput must stay at parity.
            # 0.7x leaves room for single-core timer noise while still
            # catching a real regression of the default figure path.
            if sweep["exact_speedup"] < 0.7:
                print(
                    f"[fail] exact-mode sweep at {sweep['exact_speedup']:.2f}x the "
                    f"serial harness — the default trial axis regressed"
                )
                return 1
            if sweep["parallel_identical"] != 1.0:
                print("[fail] parallel sweep results were not bit-identical to serial")
                return 1
            if sweep["exact_identical"] != 1.0:
                print("[fail] exact-mode sweep diverged from the serial harness")
                return 1
        if args.require_numba:
            backends = payload["sections"]["backends"]
            if backends["numba_available"] != 1.0:
                print(
                    f"[fail] {args.validate} carries no numba rows "
                    f"(numba_available={backends['numba_available']}) but "
                    f"--require-numba was given — the numba install is broken "
                    f"or missing, so the compiled floor would pass vacuously"
                )
                return 1
        if args.min_numba_encode_speedup is not None:
            backends = payload["sections"]["backends"]
            fused = backends["kernels"]["fused_encode"]
            if backends["numba_available"] == 1.0:
                speedup = fused["numba"]["per_sec"] / fused["numpy"]["per_sec"]
                if speedup < args.min_numba_encode_speedup:
                    print(
                        f"[fail] numba fused-encode at {speedup:.2f}x numpy — "
                        f"below the {args.min_numba_encode_speedup:.2f}x floor"
                    )
                    return 1
                print(f"[ok] numba fused-encode at {speedup:.2f}x numpy")
            else:
                print("[ok] numba rows absent (numba unavailable); floor not applicable")
        if args.min_sharded_ingest_speedup is not None:
            distributed = payload["sections"]["distributed"]
            if distributed["identical"] != 1.0:
                print(
                    "[fail] sharded ingest diverged: merged partials were not "
                    "byte-identical to the single-aggregator run"
                )
                return 1
            if distributed["ingest_speedup"] < args.min_sharded_ingest_speedup:
                print(
                    f"[fail] sharded ingest at "
                    f"{distributed['ingest_speedup']:.2f}x the single "
                    f"aggregator — below the "
                    f"{args.min_sharded_ingest_speedup:.2f}x floor"
                )
                return 1
            print(
                f"[ok] sharded ingest ({distributed['shards']:.0f} shards) at "
                f"{distributed['ingest_speedup']:.2f}x single-aggregator "
                f"throughput, merge {distributed['merge_seconds'] * 1e3:.1f}ms, "
                f"byte-identical"
            )
        if args.min_service_ingest is not None:
            service = payload["sections"]["service"]
            if service["ingest_reports_per_sec"] < args.min_service_ingest:
                print(
                    f"[fail] service ingest at "
                    f"{service['ingest_reports_per_sec']:,.0f} reports/s — "
                    f"below the {args.min_service_ingest:,.0f}/s floor"
                )
                return 1
            print(
                f"[ok] service ingest at "
                f"{service['ingest_reports_per_sec']:,.0f} reports/s "
                f"(ack p50 {service['ingest_p50_ms']:.2f}ms / p99 "
                f"{service['ingest_p99_ms']:.2f}ms; query p50 "
                f"{service['query_p50_ms']:.2f}ms / p99 "
                f"{service['query_p99_ms']:.2f}ms)"
            )
        if args.min_quorum_ingest is not None:
            service = payload["sections"]["service"]
            if service["quorum_digest_match"] != 1.0:
                print(
                    "[fail] replicated leg diverged: primary and standby "
                    "published different snapshot digests"
                )
                return 1
            if service["quorum_ingest_reports_per_sec"] < args.min_quorum_ingest:
                print(
                    f"[fail] quorum-ack ingest at "
                    f"{service['quorum_ingest_reports_per_sec']:,.0f} reports/s "
                    f"— below the {args.min_quorum_ingest:,.0f}/s floor"
                )
                return 1
            print(
                f"[ok] quorum-ack ingest at "
                f"{service['quorum_ingest_reports_per_sec']:,.0f} reports/s "
                f"with {service['quorum_replicas']:.0f} standby (ack p50 "
                f"{service['quorum_ingest_p50_ms']:.2f}ms / p99 "
                f"{service['quorum_ingest_p99_ms']:.2f}ms), byte-identical "
                f"snapshots"
            )
        if args.min_window_estimate is not None:
            service = payload["sections"]["service"]
            if service["window_estimates_per_sec"] < args.min_window_estimate:
                print(
                    f"[fail] windowed estimates at "
                    f"{service['window_estimates_per_sec']:,.0f}/s — below the "
                    f"{args.min_window_estimate:,.0f}/s floor"
                )
                return 1
            print(
                f"[ok] windowed estimates at "
                f"{service['window_estimates_per_sec']:,.0f}/s over a "
                f"{service['window_query_epochs']:.0f}-epoch window "
                f"(p50 {service['window_query_p50_ms']:.2f}ms / p99 "
                f"{service['window_query_p99_ms']:.2f}ms; temporal ingest "
                f"{service['window_ingest_reports_per_sec']:,.0f} reports/s)"
            )
        if args.min_recover is not None:
            service = payload["sections"]["service"]
            if service["recover_reports_per_sec"] < args.min_recover:
                print(
                    f"[fail] in-process recovery at "
                    f"{service['recover_reports_per_sec']:,.0f} reports/s — "
                    f"below the {args.min_recover:,.0f}/s floor"
                )
                return 1
            print(
                f"[ok] in-process recovery at "
                f"{service['recover_reports_per_sec']:,.0f} reports/s "
                f"({service['recover_p50_ms']:.1f}ms for {service['n']:,.0f} "
                f"reports)"
            )
        if args.max_wal_bytes_per_report is not None:
            service = payload["sections"]["service"]
            if service["wal_bytes_per_report"] > args.max_wal_bytes_per_report:
                print(
                    f"[fail] WAL at {service['wal_bytes_per_report']:.3f} "
                    f"B/report — above the "
                    f"{args.max_wal_bytes_per_report:.3f} B ceiling"
                )
                return 1
            print(
                f"[ok] WAL at {service['wal_bytes_per_report']:.3f} B/report "
                f"({service['wal_bytes']:,.0f} bytes for {service['n']:,.0f} "
                f"reports)"
            )
        if args.max_cold_start_cpu_ms is not None:
            service = payload["sections"]["service"]
            if service["cold_start_cpu_ms"] > args.max_cold_start_cpu_ms:
                print(
                    f"[fail] process cold start used "
                    f"{service['cold_start_cpu_ms']:.0f}ms CPU — above the "
                    f"{args.max_cold_start_cpu_ms:.0f}ms ceiling"
                )
                return 1
            print(
                f"[ok] process cold start {service['cold_start_cpu_ms']:.0f}ms "
                f"CPU, {service['cold_start_wall_ms']:.0f}ms wall until /readyz "
                f"(in-process recovery {service['recover_p50_ms']:.1f}ms of it)"
            )
        if args.min_fagms_update is not None:
            baselines = payload["sections"]["baselines"]
            rate = baselines["fagms_update_zipf_values_per_sec"]
            if rate < args.min_fagms_update:
                print(
                    f"[fail] Fast-AGMS update at {rate:,.0f} values/s — below "
                    f"the {args.min_fagms_update:,.0f}/s floor"
                )
                return 1
            print(
                f"[ok] Fast-AGMS update at {rate:,.0f} zipf values/s "
                f"({baselines['fagms_update_distinct_values_per_sec']:,.0f}/s "
                f"all-distinct); two-sketch frequent-item scan "
                f"{baselines['frequent_items_seconds']:.3f}s"
            )
        print(f"[ok] {args.validate} matches BENCH_perf schema v{payload['schema_version']}")
        return 0

    if args.out is None:
        args.out = (
            Path.cwd() / "bench_perf_quick.json"
            if args.quick
            else Path(__file__).resolve().parents[2] / "BENCH_perf.json"
        )

    payload = run_suite(
        quick=args.quick, backends_n=FULL_N if args.full_backends else None
    )
    validate_payload(payload)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    end_to_end = payload["sections"]["end_to_end"]
    print(f"[bench] mode={payload['mode']} n={end_to_end['n']}")
    print(
        f"[bench] end-to-end encode->aggregate: baseline "
        f"{end_to_end['baseline_clients_per_sec']:,.0f} clients/s, fused "
        f"{end_to_end['fused_clients_per_sec']:,.0f} clients/s "
        f"({end_to_end['speedup']:.2f}x)"
    )
    sweep = payload["sections"]["sweep"]
    print(
        f"[bench] sweep grid ({sweep['methods']:.0f} methods x "
        f"{sweep['epsilons']:.0f} epsilons x {sweep['trials']:.0f} trials, "
        f"n={sweep['n']:.0f}): serial harness {sweep['serial_seconds']:.3f}s, "
        f"engine grouped {sweep['grouped_seconds']:.3f}s "
        f"({sweep['speedup']:.2f}x), exact {sweep['exact_seconds']:.3f}s "
        f"({sweep['exact_speedup']:.2f}x, identical="
        f"{bool(sweep['exact_identical'])}), parallel identical="
        f"{bool(sweep['parallel_identical'])}"
    )
    backends = payload["sections"]["backends"]
    fused = backends["kernels"]["fused_encode"]
    rows = ", ".join(
        f"{name} {row['per_sec']:,.0f}/s" for name, row in fused.items()
    )
    print(
        f"[bench] backends (active={backends['active']}, "
        f"numba_available={bool(backends['numba_available'])}): "
        f"fused encode {rows}"
    )
    distributed = payload["sections"]["distributed"]
    print(
        f"[bench] distributed ingest ({distributed['shards']:.0f} shards, "
        f"n={distributed['n']:.0f}): single "
        f"{distributed['single_clients_per_sec']:,.0f} clients/s, sharded "
        f"capacity {distributed['sharded_clients_per_sec']:,.0f} clients/s "
        f"({distributed['ingest_speedup']:.2f}x), merge "
        f"{distributed['merge_seconds'] * 1e3:.1f}ms, identical="
        f"{bool(distributed['identical'])}"
    )
    service = payload["sections"]["service"]
    print(
        f"[bench] service (n={service['n']:.0f}, "
        f"{service['connections']:.0f} connections): ingest "
        f"{service['ingest_reports_per_sec']:,.0f} reports/s "
        f"(ack p50 {service['ingest_p50_ms']:.2f}ms / p99 "
        f"{service['ingest_p99_ms']:.2f}ms), query p50 "
        f"{service['query_p50_ms']:.2f}ms / p99 {service['query_p99_ms']:.2f}ms, "
        f"WAL {service['wal_bytes_per_report']:.3f} B/report, "
        f"in-process recovery {service['recover_reports_per_sec']:,.0f} reports/s, "
        f"process cold start {service['cold_start_cpu_ms']:.0f}ms CPU / "
        f"{service['cold_start_wall_ms']:.0f}ms wall"
    )
    print(
        f"[bench] quorum-ack ingest (1 standby, n={service['quorum_n']:.0f}): "
        f"{service['quorum_ingest_reports_per_sec']:,.0f} reports/s "
        f"(ack p50 {service['quorum_ingest_p50_ms']:.2f}ms / p99 "
        f"{service['quorum_ingest_p99_ms']:.2f}ms), digest match="
        f"{bool(service['quorum_digest_match'])}"
    )
    print(
        f"[bench] windowed estimates (window={service['window_query_epochs']:.0f} "
        f"of {service['window_epochs']:.0f} epochs, n={service['window_n']:.0f}): "
        f"{service['window_estimates_per_sec']:,.0f}/s "
        f"(p50 {service['window_query_p50_ms']:.2f}ms / p99 "
        f"{service['window_query_p99_ms']:.2f}ms), temporal ingest "
        f"{service['window_ingest_reports_per_sec']:,.0f} reports/s"
    )
    baselines = payload["sections"]["baselines"]
    print(
        f"[bench] baselines (n={baselines['n']:.0f}): Fast-AGMS update "
        f"{baselines['fagms_update_zipf_values_per_sec']:,.0f} zipf-1.5 values/s "
        f"({baselines['fagms_update_zipf_distinct']:.0f} distinct), "
        f"{baselines['fagms_update_distinct_values_per_sec']:,.0f}/s all-distinct; "
        f"frequent-item scan of 2 sketches over "
        f"{baselines['frequent_items_domain']:.0f} values "
        f"{baselines['frequent_items_seconds']:.3f}s"
    )
    print(f"[bench] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
