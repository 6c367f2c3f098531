"""Statistics helpers of the benchmark: percentiles with a sample-count
floor, quartile spreads, and the two-set agreement rule.

Percentiles use the nearest-rank rule: the q-th percentile of ``n``
sorted samples is the sample at 1-based rank ``ceil(q * n)``.  A
percentile is a trustworthy tail estimate only when at least
``SAMPLE_FLOOR`` samples lie beyond it, i.e. ``n - ceil(q * n) >= 10``
(for p90 that means at least 100 samples).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie strictly beyond a percentile for it to count
#: as a measured tail rather than a near-maximum
SAMPLE_FLOOR = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    if n <= 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile fraction {q} outside (0, 1]")
    # round away float noise before the ceiling: 0.9 * 100 is 90.00000000000001
    return min(n, max(1, math.ceil(round(q * n, 9))))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (``q`` in (0, 1])."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the q-th percentile."""
    return n - _rank(n, q)


def meets_floor(n: int, q: float, floor: int = SAMPLE_FLOOR) -> bool:
    """True when the q-th percentile of ``n`` samples has ``floor``
    samples beyond it."""
    return n > 0 and samples_beyond(n, q) >= floor


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def worse_by(first_median: float, second_median: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of
    the first (negative when it is better)."""
    if first_median == 0:
        return 0.0 if second_median == 0 else math.inf
    delta = (second_median - first_median) / abs(first_median)
    return delta if better == "lower" else -delta


def agreement(
    first: Sequence[float],
    second: Sequence[float],
    *,
    bound: float,
    better: str,
    check_spread: bool = True,
) -> dict:
    """Judge two sets of runs of the same code against one metric bound.

    They agree when each set's quartile spread stays within ``bound``
    (skipped with ``check_spread=False``, as for set-up time) and the
    second median is not worse than the first by more than ``bound``.
    """
    spreads = [spread(first), spread(second)]
    drift = worse_by(statistics.median(first), statistics.median(second), better)
    ok = drift <= bound and (
        not check_spread or all(s <= bound for s in spreads)
    )
    return {"spreads": spreads, "drift": drift, "ok": ok}
