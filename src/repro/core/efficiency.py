"""Partitioning quality — Definition 1 and the Figure 7 statistics.

Every partitioning the paper compares is judged here, and only here.

Given a universal table ``T`` of entities, a query set ``W``, and a
partitioning ``P``::

    EFFICIENCY(P) = Σ_{q∈W, e∈T} sgn(|e ∧ q|) · SIZE(e)
                    ───────────────────────────────────
                    Σ_{q∈W, p∈P} sgn(|p ∧ q|) · SIZE(p)

The numerator is how much data is *relevant* to the workload; the
denominator how much data is *read* when every non-prunable partition is
scanned in full.  The value lies in ``[0, 1]``: 1 means every byte read was
needed, small values mean the partitioning forces queries over mostly
irrelevant entities.  The unpartitioned universal table is the special case
``P = {T}``: any query with at least one relevant entity scans everything.

:func:`cell_efficiency` is the same ratio counted in instantiated cells,
which is what makes a horizontal partitioning and a vertical fragmenting
(Section VI, ref [18]) comparable: both are lists of ``(mask, cells)``
units.  :func:`summarize_catalog` collects what Figure 7 plots per weight:
partitions, and entities, attributes and sparseness per partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.catalog import PartitionCatalog


def partitioning_efficiency(
    entities: Iterable[tuple[int, float]],
    queries: Sequence[int],
    partitions: Iterable[tuple[int, float]],
) -> float:
    """Compute EFFICIENCY(P) from raw synopses.

    Args:
        entities: ``(synopsis_mask, SIZE(e))`` per entity of the table.
        queries: query synopsis masks (the workload ``W``).
        partitions: ``(synopsis_mask, SIZE(p))`` per partition.

    Returns:
        The efficiency in ``[0, 1]``.  A workload that reads nothing (every
        partition prunable for every query) is vacuously perfect: 1.0.
    """
    relevant = 0.0
    for entity_mask, entity_size in entities:
        matched = sum(1 for q in queries if entity_mask & q)
        relevant += matched * entity_size
    read = 0.0
    for partition_mask, partition_size in partitions:
        touched = sum(1 for q in queries if partition_mask & q)
        read += touched * partition_size
    if read == 0.0:
        return 1.0
    return relevant / read


def catalog_efficiency(catalog: "PartitionCatalog", queries: Sequence[int]) -> float:
    """EFFICIENCY(P) for a live partition catalog.

    Entity sizes and partition sizes come from the catalog itself, so the
    metric automatically agrees with whatever :class:`~repro.core.sizes.SizeModel`
    the partitioner was configured with.
    """
    entities = (
        (mask, size)
        for partition in catalog
        for _eid, mask, size in partition.members()
    )
    partitions = ((p.mask, p.total_size) for p in catalog)
    return partitioning_efficiency(entities, queries, partitions)


def universal_table_efficiency(
    entities: Sequence[tuple[int, float]], queries: Sequence[int]
) -> float:
    """EFFICIENCY of the unpartitioned baseline (``P = {T}``).

    The whole table is one partition whose synopsis is the union of all
    entity synopses; every query that matches anything reads everything.
    """
    union_mask = 0
    total_size = 0.0
    for mask, size in entities:
        union_mask |= mask
        total_size += size
    return partitioning_efficiency(entities, queries, [(union_mask, total_size)])


def catalog_cells(catalog: "PartitionCatalog") -> list[tuple[int, float]]:
    """``(synopsis, instantiated cells)`` per partition, for
    :func:`cell_efficiency`: a partition read in full reads every cell
    its members instantiate."""
    return [
        (
            partition.mask,
            float(sum(mask.bit_count() for _eid, mask, _size in partition.members())),
        )
        for partition in catalog
    ]


def cell_efficiency(
    entity_masks: Sequence[int],
    units: Sequence[tuple[int, float]],
    queries: Sequence[int],
) -> float:
    """Definition 1 counted in instantiated cells.

    A query reads, in full, every unit (partition or vertical fragment)
    whose mask overlaps it: ``Σ_q Σ_{u: u∧q≠0} cells(u)``.  Relevant are
    the entities' cells in exactly the queried attributes:
    ``Σ_q Σ_e |e ∧ q|``.  A workload that reads nothing scores 1.0.
    """
    read = 0.0
    for query_mask in queries:
        for unit_mask, cells in units:
            if unit_mask & query_mask:
                read += cells
    if read == 0.0:
        return 1.0
    relevant = sum(
        (mask & query_mask).bit_count()
        for query_mask in queries
        for mask in entity_masks
    )
    return float(relevant) / read


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number summary (plus mean) of a sample, for box-plot output."""

    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    mean: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "DistributionSummary":
        if not values:
            raise ValueError("cannot summarize an empty sample")
        ordered = sorted(values)
        return cls(
            minimum=ordered[0],
            p25=percentile(ordered, 25.0),
            median=percentile(ordered, 50.0),
            p75=percentile(ordered, 75.0),
            maximum=ordered[-1],
            mean=sum(ordered) / len(ordered),
        )

    def row(self) -> tuple[float, float, float, float, float, float]:
        return (self.minimum, self.p25, self.median, self.p75, self.maximum, self.mean)


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already *sorted* sample."""
    if not ordered:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    fraction = position - lower
    return float(ordered[lower]) * (1.0 - fraction) + float(ordered[upper]) * fraction


@dataclass(frozen=True)
class PartitioningSummary:
    """The Figure 7 metrics of one partitioning."""

    partition_count: int
    entity_count: int
    entities_per_partition: tuple[int, ...]
    attributes_per_partition: tuple[int, ...]
    sparseness_per_partition: tuple[float, ...]

    @property
    def entities_summary(self) -> DistributionSummary:
        return DistributionSummary.of(self.entities_per_partition)

    @property
    def attributes_summary(self) -> DistributionSummary:
        return DistributionSummary.of(self.attributes_per_partition)

    @property
    def sparseness_summary(self) -> DistributionSummary:
        return DistributionSummary.of(self.sparseness_per_partition)

    @property
    def max_sparseness(self) -> float:
        return max(self.sparseness_per_partition)


def summarize_catalog(catalog: "PartitionCatalog") -> PartitioningSummary:
    """Collect the Figure 7 metrics from a partition catalog."""
    if not len(catalog):
        raise ValueError("catalog holds no partitions")
    return PartitioningSummary(
        partition_count=len(catalog),
        entity_count=catalog.entity_count,
        entities_per_partition=tuple(len(p) for p in catalog),
        attributes_per_partition=tuple(p.attr_count for p in catalog),
        sparseness_per_partition=tuple(p.sparseness() for p in catalog),
    )
