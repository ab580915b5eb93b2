"""The property suite's tolerances, apart from ``verify`` so that the
command line can show the default without loading the numerics.

The numerics' own thresholds are in ``config.py``.
"""

DEFAULT_TOLERANCE = 1e-6

#: per-property slack multipliers on the base tolerance; a word chains up
#: to six generator formulas, with nothing re-derived between steps.
TOLERANCE_MULTIPLIERS = {"word_consistency": 10.0}
