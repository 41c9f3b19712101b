"""Unified estimation API: one result type, one registry, one session.

The paper's central point is that *one* private sketch answers join-size,
frequency and multiway queries.  This package gives the repo one entry
point to match:

* :class:`EstimateResult` — the single frozen result type of every
  estimator (estimate + offline/online time, uplink bits, sketch memory,
  :class:`~repro.privacy.budget.BudgetLedger`);
* the **registry** — :func:`register` / :func:`get_estimator` /
  :func:`available_estimators` hand out every method of the evaluation
  (LDPJoinSketch, LDPJoinSketch+/FAP, LDP-COMPASS, FAGMS and the k-RR /
  OLH / FLH / Apple-HCMS frequency-oracle baselines) by name;
* :class:`JoinSession` — incremental, mergeable, serialisable server-side
  collection over shared hash pairs, with ``estimate()`` /
  ``estimate_chain()`` / ``frequencies()`` queries between waves.

Quickstart::

    from repro.api import JoinSession, get_estimator
    from repro.core import SketchParams

    session = JoinSession(SketchParams(k=18, m=1024, epsilon=4.0), seed=7)
    session.collect("A", values_a)
    session.collect("B", values_b)
    print(session.estimate().estimate)

    est = get_estimator("ldpjs+", k=18, m=1024)
    print(est.estimate(instance, epsilon=4.0, seed=7).estimate)

Exports are lazy (:mod:`repro._lazy`): each name imports its submodule
when first read.
"""

from .._lazy import lazy_exports

# The concrete estimator classes live in .estimators, which imports the
# core protocol modules; those in turn import .result for the unified
# result type.  Lazy exports keep that cycle open — the registry itself
# pulls .estimators in on first lookup.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".result": ("EstimateResult",),
        ".registry": (
            "JoinEstimator",
            "register",
            "get_estimator",
            "available_estimators",
            "resolve_estimator",
        ),
        ".session": ("JoinSession",),
        ".estimators": (
            "BaseEstimator",
            "FAGMSEstimator",
            "KRREstimator",
            "FLHEstimator",
            "HCMSEstimator",
            "OLHEstimator",
            "LDPJoinSketchEstimator",
            "LDPJoinSketchPlusEstimator",
            "CompassEstimator",
            "run_join_sketch",
            "run_join_sketch_trials",
            "run_join_sketch_trial_group",
            "run_join_sketch_plus",
        ),
    },
)
