"""Privacy substrate: randomized-response primitives, budgets, LDP audits.

Exports are lazy (:mod:`repro._lazy`): each name imports its submodule
when first read.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".response": (
            "c_epsilon",
            "flip_probability",
            "keep_probability",
            "random_signs",
            "grr_probabilities",
            "grr_perturb",
        ),
        ".budget": ("PrivacySpec", "BudgetLedger", "ContinualLedger"),
        ".audit": ("max_privacy_ratio", "verify_ldp"),
    },
)
