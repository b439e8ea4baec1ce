"""Telemetry: time series of partitioning health during a workload.

The online partitioning problem is about behaviour *over time* — the
partitioning must stay good while modifications stream in.  This module
samples a partitioner at a fixed operation cadence and records the series
(partition count, efficiency, mean fill, split count), so benchmarks and
examples can show convergence and stability instead of just end states.

The operational counters (``QueryPathCounters`` and friends) live in
:mod:`repro.obs.counters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from repro.core.efficiency import catalog_efficiency

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partitioner import CinderellaPartitioner


@dataclass(frozen=True)
class TelemetrySample:
    """One sampled point of the partitioning's state."""

    operations: int
    entity_count: int
    partition_count: int
    mean_fill: float
    split_count: int
    efficiency: Optional[float]


@dataclass
class TelemetryCollector:
    """Samples a partitioner every ``interval`` observed operations.

    >>> from repro.core.partitioner import CinderellaPartitioner
    >>> collector = TelemetryCollector(interval=2)
    >>> p = CinderellaPartitioner()
    >>> for eid in range(4):
    ...     _ = p.insert(eid, 0b11)
    ...     collector.observe(p)
    >>> [s.entity_count for s in collector.samples]
    [2, 4]
    """

    interval: int = 100
    query_masks: Optional[Sequence[int]] = None
    samples: list[TelemetrySample] = field(default_factory=list)
    _operations: int = 0

    def observe(self, partitioner: "CinderellaPartitioner") -> None:
        """Count one operation; sample when the interval elapses."""
        self._operations += 1
        if self._operations % self.interval == 0:
            self.sample_now(partitioner)

    def sample_now(self, partitioner: "CinderellaPartitioner") -> TelemetrySample:
        """Take a sample immediately (also called by :meth:`observe`)."""
        catalog = partitioner.catalog
        partition_count = len(catalog)
        entity_count = catalog.entity_count
        efficiency = None
        if self.query_masks is not None and partition_count:
            efficiency = catalog_efficiency(catalog, self.query_masks)
        sample = TelemetrySample(
            operations=self._operations,
            entity_count=entity_count,
            partition_count=partition_count,
            mean_fill=entity_count / partition_count if partition_count else 0.0,
            split_count=partitioner.split_count,
            efficiency=efficiency,
        )
        self.samples.append(sample)
        return sample

    def series(self, metric: str) -> list[tuple[float, float]]:
        """One metric as an (operations, value) series for the renderers."""
        points = []
        for sample in self.samples:
            value = getattr(sample, metric)
            if value is None:
                continue
            points.append((float(sample.operations), float(value)))
        return points
