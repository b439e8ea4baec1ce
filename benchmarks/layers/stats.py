"""Order statistics and the repeat / compare verdicts.

Kept free of any ``repro`` import so the comparison of two result files
works on a machine that has only the files.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``q`` in 0..100).

    The value at rank ``ceil(q/100 * n)``: always a value that was
    measured, never an interpolation between two of them.
    """
    if not sorted_values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them — the same rule the driver applies to its own repeats."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartile_spread(values)
    return (q3 - q1) / abs(median) if median else math.inf


def worsening(parent: float, change: float, better: str) -> float:
    """Share of the parent's value by which *change* is worse (negative
    when it is better)."""
    if parent == 0:
        return 0.0 if change == 0 else math.inf
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """``improved`` / ``unchanged`` / ``regressed`` / ``unresolved``.

    ``unresolved`` is a spread wider than the bound on either side while
    the two sets of runs overlap: the benchmark cannot tell, and says so
    rather than reporting ``unchanged``.
    """
    worse_by = worsening(
        statistics.median(parent), statistics.median(change), better
    )
    if better == "lower":
        change_all_better = max(change) < min(parent)
        change_all_worse = min(change) > max(parent)
    else:
        change_all_better = min(change) > max(parent)
        change_all_worse = max(change) < min(parent)
    noisy = max(relative_spread(parent), relative_spread(change)) > bound
    if noisy and not (change_all_better or change_all_worse):
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"
