"""Analytical race-model solver and adaptive campaign planner.

Eq. 1/2 of the SATIN paper are closed-form; this package answers
E7/E9-class questions from the equations first and spends Monte-Carlo
seeds only where the closed form is uncertain:

* :mod:`repro.analysis.planning.solver` — WCRT-style best/worst-case
  envelopes and a fast quadrature over the calibrated timing
  distributions (win probability, escape probability, detection-latency
  bounds per area size / wake-up law).
* :mod:`repro.analysis.planning.planner` — sequential-confidence-interval
  campaign driver (``repro campaign --adaptive --ci-width W``) that stops
  dispatching seeds the moment the target CI is met, allocating extra
  rounds to configs the solver flags as contested.
* :mod:`repro.analysis.planning.search` — ``repro plan``: parameter
  search against an overhead budget using solver bounds first and short
  simulations only to break ties.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "Interval": "repro.analysis.planning.solver",
    "RaceModel": "repro.analysis.planning.solver",
    "detection_latency_bounds": "repro.analysis.planning.solver",
    "escape_probability_bounds": "repro.analysis.planning.solver",
    "escape_probability_estimate": "repro.analysis.planning.solver",
    "solve_preset": "repro.analysis.planning.solver",
})

__all__ = [
    "Interval",
    "RaceModel",
    "detection_latency_bounds",
    "escape_probability_bounds",
    "escape_probability_estimate",
    "solve_preset",
]
