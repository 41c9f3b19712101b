"""Non-private sketch substrates.

These are the classical streaming summaries the paper builds on or compares
against:

* :class:`AGMSSketch` — the original tug-of-war sketch (Alon et al.);
* :class:`FastAGMSSketch` — the Fast-AGMS sketch (Cormode & Garofalakis),
  the non-private "FAGMS" baseline of the experiments and the structure
  LDPJoinSketch privatises;
* :class:`CountMinSketch` and :class:`CountSketch` — standard frequency
  summaries, used for comparison and by tests;
* :class:`CountMeanSketch` — the server-side structure of Apple's CMS/HCMS;
* :class:`CompassChainSketches` — COMPASS-style multiway chain-join
  sketches (Section VI baseline).

Exports are lazy (:mod:`repro._lazy`): each name imports its submodule
when first read, so code that needs only the shared row hashing of
:mod:`repro.sketches.base` loads none of the sketches.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("LinearSketch",),
        ".agms": ("AGMSSketch",),
        ".fast_agms": ("FastAGMSSketch",),
        ".count_min": ("CountMinSketch",),
        ".count_sketch": ("CountSketch",),
        ".count_mean": ("CountMeanSketch",),
        ".compass": ("CompassChainSketches", "CompassMiddleSketch"),
    },
)
