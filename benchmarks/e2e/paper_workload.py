"""The ``paper-batch`` workload: the paper's own estimators, in process.

LDPJoinSketch and LDPJoinSketch+ ``estimate()`` on ``zipf-1.5`` with one
million clients per stream (epsilon = 4, k = 18, m = 1024), then a
paper-style ``sweep_table`` grid with ``workers=1``.  No service module
runs, so this workload is the control for service changes and the first
place a change to the encode kernel, the FWHT or the frequent-item scan
shows.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from common import Outcome, median, peak_rss_mb, tail
from tracing import SpanSet, Tracer, install

from repro.api import get_estimator
from repro.data import make_join_instance
from repro.experiments.sweep import sweep_table
from repro.rng import derive_seed, ensure_rng

DATASET = "zipf-1.5"
CLIENTS = 1_000_000
EPSILON = 4.0
SKETCH = {"k": 18, "m": 1024}
#: Instance builds per run whose median is ``setup_s``.
SETUPS = 5
#: One round: LDPJS_PER_ROUND LDPJoinSketch estimates, one LDPJoinSketch+
#: estimate and one sweep grid.  A run makes a fixed number of rounds,
#: sized to fill ``--seconds`` at ``NOMINAL_ROUND_S`` per round, so the
#: sample counts (and hence the reported tail percentile) never vary.
LDPJS_PER_ROUND = 10
NOMINAL_ROUND_S = 5.0
MIN_ROUNDS = 2
#: The sweep grid (Fig. 12 style): two skews, the private estimator and
#: the non-private Fast-AGMS baseline, two budgets.
SWEEP_DATASETS = ["zipf-1.5", "zipf-2.0"]
SWEEP_METHODS = ["ldpjs", "fagms"]
SWEEP_EPSILONS = [2.0, 4.0]
SWEEP_TRIALS = 2
SWEEP_SIZE = 100_000
SWEEP_UNIT_TRIALS = len(SWEEP_DATASETS) * len(SWEEP_METHODS) * len(SWEEP_EPSILONS) * SWEEP_TRIALS
#: Relative-error bounds every estimate must meet.  Both are several
#: times the worst error seen at the seed: about 0.5% for the n = 1M
#: estimates and 1.1% for the sweep's two-trial means.
PAPER_RE_BOUND = 0.05
SWEEP_RE_BOUND = 0.10


def run_paper(work: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        instance = make_join_instance(DATASET, size=CLIENTS, seed=seed)
        truth = instance.true_join_size
        setups.append(time.perf_counter() - start)
    outcome.metrics["setup_s"] = median(setups)
    outcome.report["setup_s"] = (median(setups), f"s n={len(setups)}")

    ldpjs = get_estimator("ldpjs", **SKETCH)
    plus = get_estimator("ldpjs+", **SKETCH)
    seeds = ensure_rng(seed)
    ldpjs.estimate(instance, EPSILON, seed=derive_seed(seeds))  # let lazy set-up finish

    def checked(name: str, estimator) -> float:
        began = time.perf_counter()
        result = estimator.estimate(instance, EPSILON, seed=derive_seed(seeds))
        elapsed = time.perf_counter() - began
        error = abs(result.estimate - truth) / truth
        outcome.attempted += 1
        if error > PAPER_RE_BOUND:
            outcome.failed += 1
            outcome.check(f"{name} relative error <= {PAPER_RE_BOUND}", False, f"{error:.4f}")
        outcome.context["uplink_bits"] = result.uplink_bits
        return elapsed

    ldpjs_s, plus_s, sweep_s = [], [], []
    # Process CPU per round: microseconds per client report of the
    # n = 1M estimates, milliseconds per sweep trial.
    report_cpu_us, trial_cpu_ms = [], []
    start = time.perf_counter()
    for _ in range(max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S))):
        cpu_before = time.process_time()
        for _ in range(LDPJS_PER_ROUND):
            ldpjs_s.append(checked("LDPJoinSketch", ldpjs))
        plus_s.append(checked("LDPJoinSketch+", plus))
        report_cpu_us.append(
            (time.process_time() - cpu_before) * 1e6 / ((LDPJS_PER_ROUND + 1) * 2 * CLIENTS)
        )
        cpu_before = time.process_time()
        began = time.perf_counter()
        table = sweep_table(
            SWEEP_DATASETS, SWEEP_METHODS, SWEEP_EPSILONS, SWEEP_TRIALS,
            size=SWEEP_SIZE, seed=derive_seed(seeds), workers=1,
        )
        sweep_s.append(time.perf_counter() - began)
        trial_cpu_ms.append((time.process_time() - cpu_before) * 1e3 / SWEEP_UNIT_TRIALS)
        for row in table.rows:
            dataset, method, epsilon, _, _, _, rel_error = row
            outcome.attempted += 1
            if not rel_error <= SWEEP_RE_BOUND:
                outcome.failed += 1
                outcome.check(
                    f"sweep {dataset}/{method}/eps={epsilon} relative error <= {SWEEP_RE_BOUND}",
                    False, f"{rel_error:.4f}",
                )
    outcome.check("every estimate within its relative-error bound", outcome.failed == 0,
                  f"{outcome.failed}/{outcome.attempted} outside")

    ldpjs_ms = [value * 1e3 for value in ldpjs_s]
    q, tail_ms = tail(ldpjs_ms)
    trial_ms = [value * 1e3 / SWEEP_UNIT_TRIALS for value in sweep_s]
    bytes_per_report = outcome.context["uplink_bits"] / 8 / (2 * CLIENTS)
    outcome.metrics.update({
        "throughput_per_s": 2 * CLIENTS / median(plus_s),
        "op_p50_ms": median(ldpjs_ms),
        "op_tail_ms": tail_ms,
        "second_op_p50_ms": median(trial_ms),
        "cpu_us_per_report": median(report_cpu_us),
        "second_op_cpu_ms": median(trial_cpu_ms),
        "rss_mb": peak_rss_mb(os.getpid()),
        "bytes_per_report": bytes_per_report,
    })
    outcome.report.update({
        "ldpjs_clients_per_s": (2 * CLIENTS / median(ldpjs_s), f"1/s n={len(ldpjs_s)}"),
        "ldpjs_plus_clients_per_s": (2 * CLIENTS / median(plus_s), f"1/s n={len(plus_s)}"),
        "sweep_trials_per_s": (SWEEP_UNIT_TRIALS / median(sweep_s), f"1/s n={len(sweep_s)}"),
        "ldpjs_estimate_p50_ms": (median(ldpjs_ms), "ms"),
        f"ldpjs_estimate_p{q:g}_ms": (tail_ms, f"ms n={len(ldpjs_ms)}"),
        "uplink_bytes_per_report": (bytes_per_report, "B"),
        "cpu_us_per_client_report": (median(report_cpu_us), "us n = 1M estimates, "
                                     f"median of {len(report_cpu_us)} rounds"),
        "cpu_ms_per_sweep_trial": (median(trial_cpu_ms),
                                   f"ms median of {len(trial_cpu_ms)} rounds"),
    })
    outcome.context["window"] = (start, time.perf_counter())
    if tracer is not None:
        outcome.spans["main"] = [SpanSet(tracer.spans)]
    return outcome
