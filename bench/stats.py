"""Summaries of timing samples: the percentile rule.

The percentile rule (choosing-metrics guide, section 1): a timing is reported
as its median plus the highest *listed* percentile that still has at least
ten samples beyond it, together with the sample count.  A metric whose name
fixes a percentile (``query_p95_ms``) is reported only by a run whose sample
supports it (:func:`tail_percentile`).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: The listed percentiles, ascending.
PERCENTILES = (50, 75, 90, 95, 99)
#: Samples that must lie beyond a percentile for it to be reportable.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``pct`` rank."""
    return count - max(1, math.ceil(pct / 100.0 * count)) if count else 0


def tail_percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct`` percentile, or ``None`` when fewer than ten samples lie beyond it."""
    if samples_beyond(len(values), pct) < MIN_BEYOND:
        return None
    return percentile(values, pct)


def supported_percentile(count: int) -> int:
    """The highest listed percentile with >= ``MIN_BEYOND`` samples beyond it.

    Falls back to the median, which is always reported.
    """
    best = PERCENTILES[0]
    for pct in PERCENTILES:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best
