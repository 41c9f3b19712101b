"""Fault tolerance: deterministic fault injection, retry, degradation.

Three pieces, used together by the distributed and sweep tiers:

* :class:`FaultPlan` / :func:`fault_point` — seeded, serializable fault
  schedules fired at named points threaded through the pipeline
  (:mod:`repro.reliability.faults`).
* :class:`RetryPolicy` — bounded attempts with deterministic backoff
  jitter and a typed attempt ledger (:mod:`repro.reliability.retry`).
* Graceful degradation — ``merge_tree(..., degraded=True)`` and
  ``estimate_sharded(..., degraded=True)`` merge surviving shards and
  rescale by the planner's known client coverage, recording
  ``shards_lost`` / ``coverage`` in the result ledger
  (:mod:`repro.distributed`).

The headline contract, property-tested in the chaos suite: for any
fault schedule a retry budget can absorb, the final merged estimate is
byte-identical to the fault-free run.

Exports are lazy (:mod:`repro._lazy`): each name imports its submodule
when first read.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".faults": (
            "FAULT_KINDS",
            "FaultSpec",
            "FaultPlan",
            "fault_point",
            "arm",
            "disarm",
            "injected",
            "active_plan",
            "attempt_scope",
            "current_attempt",
        ),
        ".retry": ("RetryPolicy", "AttemptRecord", "DEFAULT_RETRYABLE"),
        # typed errors (re-exported from repro.errors)
        "..errors": (
            "InjectedFaultError",
            "InjectedCrashError",
            "RetryExhaustedError",
            "ShardLostError",
            "SweepWorkerLostError",
            "CheckpointCorruptError",
            "PartialIntegrityError",
        ),
    },
)
