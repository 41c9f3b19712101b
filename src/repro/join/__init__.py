"""Exact join-size substrate: frequency vectors and ground-truth joins.

Exports are lazy (:mod:`repro._lazy`): each name imports its submodule
when first read.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".frequency": ("FrequencyVector",),
        ".exact": (
            "exact_join_size",
            "exact_multiway_chain_size",
            "exact_cyclic_join_size",
            "exact_self_join_size",
        ),
    },
)
