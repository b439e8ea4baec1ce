"""Logarithmic histograms — the shape of Figure 8.

Figure 8 plots the insert execution-time distribution on a log-scale time
axis ("the majority of insert operations finishes in between 1 ms and
10 ms", with a small splitting fraction orders of magnitude slower).
:class:`LogHistogram` buckets positive samples into per-decade bins
(optionally subdivided) so the benches can print the same picture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class HistogramBucket:
    """One histogram bin ``[low, high)`` with its sample count."""

    low: float
    high: float
    count: int

    def label(self) -> str:
        return f"[{self.low:g}, {self.high:g})"


class LogHistogram:
    """Histogram with logarithmically spaced bucket edges."""

    def __init__(
        self,
        low: float = 0.01,
        high: float = 10_000.0,
        buckets_per_decade: int = 2,
    ) -> None:
        if low <= 0 or high <= low:
            raise ValueError(f"need 0 < low < high, got {low}, {high}")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be at least 1")
        self.low = low
        self.high = high
        decades = math.log10(high / low)
        self._bucket_count = max(1, math.ceil(decades * buckets_per_decade))
        self._step = math.log10(high / low) / self._bucket_count
        self._counts = [0] * self._bucket_count
        self.underflow = 0
        self.overflow = 0
        self.samples = 0

    def add(self, value: float) -> None:
        """Record one positive sample."""
        self.samples += 1
        if value < self.low:
            self.underflow += 1
            return
        if value >= self.high:
            self.overflow += 1
            return
        index = int(math.log10(value / self.low) / self._step)
        index = min(index, self._bucket_count - 1)
        self._counts[index] += 1

    def add_all(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def buckets(self, skip_empty_tails: bool = True) -> list[HistogramBucket]:
        """The bins, optionally trimming empty leading/trailing bins."""
        buckets = [
            HistogramBucket(
                low=self.low * 10 ** (i * self._step),
                high=self.low * 10 ** ((i + 1) * self._step),
                count=count,
            )
            for i, count in enumerate(self._counts)
        ]
        if skip_empty_tails:
            while buckets and buckets[0].count == 0:
                buckets.pop(0)
            while buckets and buckets[-1].count == 0:
                buckets.pop()
        return buckets


def render_histogram(
    buckets: Sequence[HistogramBucket], width: int = 40, unit: str = ""
) -> str:
    """ASCII rendering of a histogram (one line per bucket)."""
    if not buckets:
        return "(no samples)"
    peak = max(bucket.count for bucket in buckets) or 1
    lines = []
    for bucket in buckets:
        bar = "#" * max(1 if bucket.count else 0, round(bucket.count / peak * width))
        lines.append(f"{bucket.label():>22}{unit}  {bucket.count:>8}  {bar}")
    return "\n".join(lines)
