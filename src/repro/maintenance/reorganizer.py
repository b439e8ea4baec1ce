"""Offline reorganization: rebuild a partitioning from scratch.

Cinderella is incremental by design — "it relies on the basic assumption
that the data is already well partitioned" (Section III).  After drastic
workload shifts that assumption can break down; the classic remedy is an
offline re-org during a maintenance window.  :func:`reorganize` replays
every entity of an existing partitioning through a *fresh* Cinderella
instance (optionally with new parameters), giving the algorithm a clean
slate, and reports how much the Definition 1 efficiency changed.

The rebuilt catalog restarts partition ids from zero; callers that swap
it in over a live one must re-stamp its partition content versions past
the replaced catalog's clock (``adopt_version_clock``) so query-result
cache entries keyed against the old catalog can never be served —
:meth:`repro.table.partitioned.CinderellaTable.reorganize` does this as
part of its swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Sequence

from repro.core.config import CinderellaConfig
from repro.core.efficiency import catalog_efficiency
from repro.core.partitioner import CinderellaPartitioner
from repro.obs import runtime as obs


@dataclass(frozen=True)
class ReorganizationReport:
    """Outcome of an offline re-org."""

    partitioner: CinderellaPartitioner
    partitions_before: int
    partitions_after: int
    efficiency_before: Optional[float]
    efficiency_after: Optional[float]

    @property
    def efficiency_gain(self) -> Optional[float]:
        if self.efficiency_before is None or self.efficiency_after is None:
            return None
        return self.efficiency_after - self.efficiency_before


def reorganize(
    partitioner: CinderellaPartitioner,
    config: Optional[CinderellaConfig] = None,
    query_masks: Optional[Sequence[int]] = None,
    order: str = "size",
) -> ReorganizationReport:
    """Rebuild the partitioning with a fresh Cinderella run.

    Every replayed entity is announced as a step through the live
    partitioner's ``crash_hook``.  The rebuild only touches the fresh
    scratch partitioner, so a failure here strands nothing;
    :meth:`repro.table.partitioned.CinderellaTable.reorganize` swaps the
    result into a table whole.

    Args:
        partitioner: the live partitioner to reorganize (left untouched;
            callers swap in the returned one and replay its layout).
        config: parameters for the rebuilt partitioning (defaults to the
            current configuration).
        query_masks: when given, Definition 1 efficiency is measured
            before and after against this workload.
        order: replay order — ``"size"`` feeds large-synopsis entities
            first (they make better early split starters), ``"stored"``
            preserves the current partition-by-partition order.

    Returns:
        A report carrying the fresh partitioner and the efficiency delta.
    """
    if order not in ("size", "stored"):
        raise ValueError(f"order must be 'size' or 'stored', got {order!r}")
    enabled = obs.is_enabled()
    started = perf_counter() if enabled else 0.0
    with obs.span("maintenance.reorganize", order=order) as span:
        entities = [
            (eid, mask, size)
            for partition in partitioner.catalog
            for eid, mask, size in partition.members()
        ]
        if order == "size":
            entities.sort(key=lambda item: (-item[1].bit_count(), item[0]))

        fresh = CinderellaPartitioner(
            config if config is not None else partitioner.config
        )
        for eid, mask, _size in entities:
            fresh.insert(eid, mask)
            partitioner._step("reorganize:replayed-entity")

        efficiency_before = None
        efficiency_after = None
        if query_masks is not None:
            efficiency_before = catalog_efficiency(
                partitioner.catalog, query_masks
            )
            efficiency_after = catalog_efficiency(fresh.catalog, query_masks)
        if span.is_recording:
            span.set("entities", len(entities))
            span.set("partitions_after", len(fresh.catalog))
    if enabled:
        obs.inc(
            "repro_maintenance_reorganizations_total",
            help_text="Offline reorganization passes run",
        )
        obs.observe(
            "repro_maintenance_reorganize_seconds",
            perf_counter() - started,
            help_text="Wall time of one offline reorganization",
        )
    return ReorganizationReport(
        partitioner=fresh,
        partitions_before=len(partitioner.catalog),
        partitions_after=len(fresh.catalog),
        efficiency_before=efficiency_before,
        efficiency_after=efficiency_after,
    )
