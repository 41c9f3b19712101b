"""The paper's primary contribution.

Public surface:

* :class:`SketchParams` — validated ``(k, m, epsilon)`` configuration;
* :func:`encode_report` / :func:`encode_reports` — Algorithm 1, the
  LDPJoinSketch client (scalar and vectorised forms);
* :class:`ReportBatch` — the wire format (``y``, row index, column index)
  plus communication-cost accounting;
* :class:`PackedReports` / :func:`encode_reports_packed` — the same
  reports packed one unsigned code per report (the format of older
  service logs);
* :class:`CoinReports` — public-coin reports: a batch's cells drawn from
  one public 64-bit coin and one sign bit per report, as the online
  service logs and replicates them;
* :class:`LDPJoinSketch` and :func:`build_sketch` — Algorithm 2 (PriSK),
  the server-side construction, with Eq. (5) join estimation and
  Theorem 7 frequency estimation;
* :func:`fap_encode_reports` — Algorithm 4, Frequency-Aware Perturbation;
* :class:`LDPJoinSketchPlus` — Algorithm 3 + Algorithm 5, the two-phase
  protocol;
* :class:`LDPCompassProtocol` — the Section VI multiway extension;
* :func:`run_ldp_join_sketch` / :func:`run_ldp_join_sketch_plus` —
  deprecated one-call shims over the unified API in :mod:`repro.api`
  (``JoinEstimate`` / ``PlusEstimate`` are aliases of
  :class:`~repro.api.EstimateResult`).

Exports are lazy (:mod:`repro._lazy`): each name imports its submodule
when first read, so the online service loads the client and server
halves without the estimator, FAP and multiway modules.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".params": ("SketchParams",),
        ".client": (
            "ReportBatch",
            "PackedReports",
            "CoinReports",
            "packed_report_dtype",
            "encode_report",
            "encode_reports",
            "encode_reports_into",
            "encode_reports_packed",
            "encode_reports_trials_into",
            "encode_reports_grouped_into",
            "DEFAULT_CHUNK_SIZE",
        ),
        ".server": ("LDPJoinSketch", "build_sketch"),
        ".aggregator": ("LDPJoinSketchAggregator",),
        ".estimator": ("estimate_join_size", "find_frequent_items"),
        ".fap": ("fap_encode_report", "fap_encode_reports"),
        ".plus": ("LDPJoinSketchPlus", "PlusEstimate"),
        ".multiway": (
            "LDPCompassProtocol",
            "LDPMiddleSketch",
            "MiddleReportBatch",
            "finalize_middle_counts",
        ),
        ".protocol": ("JoinEstimate", "run_ldp_join_sketch", "run_ldp_join_sketch_plus"),
    },
)
