"""Temporal estimation: epoch rings, window queries, decayed combination.

Exports are lazy (:mod:`repro._lazy`): each name imports its submodule
when first read.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".ring": ("EpochRing",),
        ".session": ("TemporalSession",),
        ".decay": ("combine_decayed", "decay_weights", "decayed_join_estimate"),
    },
)
