"""Partition merging — maintenance for delete-heavy workloads.

Cinderella's delete routine (Section III) only drops partitions that
become completely empty; sustained deletions therefore leave a long tail
of under-filled partitions that inflate the catalog and the per-branch
query overhead.  The paper's conclusions name continued work on managing
"a large number of partitions"; this module is that maintenance step: an
explicit, rating-driven merge of small partitions into compatible hosts.

A merge is just Cinderella's own insert logic applied at partition
granularity: the candidate partition is treated as one synthetic entity
(its synopsis and total size) and rated against every other partition
with the unchanged Section IV rating.  Only a non-negative rating — the
same acceptance rule as Algorithm 1 — and sufficient capacity allow a
merge, so merging can never introduce heterogeneity that an insert would
have refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from repro.core.outcomes import Move
from repro.core.rating import best_rated
from repro.obs import runtime as obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partitioner import CinderellaPartitioner


@dataclass
class MergeReport:
    """What one maintenance pass did."""

    #: partitions examined as merge candidates (under-filled ones)
    examined: int = 0
    #: (source pid, target pid) pairs actually merged
    merged: list[tuple[int, int]] = field(default_factory=list)
    #: physical relocations, in apply order
    moves: list[Move] = field(default_factory=list)
    #: source partitions dropped after their members moved out
    dropped_partitions: list[int] = field(default_factory=list)
    #: candidates left unmerged while the efficiency guard was armed
    #: (no host passed the rating, capacity, and workload checks)
    skipped_for_workload: int = 0

    @property
    def merge_count(self) -> int:
        return len(self.merged)


def _workload_distinguishes(
    source_mask: int, target_mask: int, query_masks: Sequence[int]
) -> bool:
    """True when some workload query touches exactly one of the two.

    Merging ``source`` into ``target`` replaces reads of one partition
    with reads of their union; a query that touched only one of them
    would afterwards scan both, so the Definition 1 efficiency of the
    workload would drop.  When no query distinguishes the pair, every
    query reads exactly as much data after the merge as before and the
    efficiency is unchanged.
    """
    for query in query_masks:
        if bool(query & source_mask) != bool(query & target_mask):
            return True
    return False


def merge_small_partitions(
    partitioner: "CinderellaPartitioner",
    min_fill: float = 0.25,
    query_masks: Optional[Sequence[int]] = None,
) -> MergeReport:
    """Merge partitions filled below ``min_fill · B`` into rated hosts.

    Candidates are processed smallest-first.  For each, the best-rated
    host with enough remaining capacity is chosen using the configured
    weight; a negative best rating leaves the candidate untouched (it is
    small but schema-unique — exactly the case where merging would hurt
    pruning).  Returns a :class:`MergeReport` whose ``moves`` the physical
    table layer must replay.

    ``query_masks`` arms the *efficiency guard*: a merge is only taken
    when no workload query distinguishes source from target, so the
    Definition 1 efficiency over that workload can never drop below its
    pre-merge value.

    This is the logical pass alone: it announces every member move and
    source drop as a step through the partitioner's ``crash_hook`` and
    opens no transaction.  The table's
    :meth:`~repro.table.partitioned.CinderellaTable.merge_small_partitions`
    runs it atomically and mirrors the moves into the heaps.
    """
    if not 0.0 < min_fill <= 1.0:
        raise ValueError(f"min_fill must lie in (0, 1], got {min_fill}")
    with obs.span("maintenance.merge", min_fill=min_fill) as span:
        report = _merge_small_partitions(partitioner, min_fill, query_masks)
        if span.is_recording:
            span.set("examined", report.examined)
            span.set("merged", report.merge_count)
    if obs.is_enabled():
        obs.inc(
            "repro_maintenance_merge_passes_total",
            help_text="Merge maintenance passes run",
        )
        obs.inc(
            "repro_maintenance_partitions_merged_total",
            report.merge_count,
            help_text="Small partitions merged into rated hosts",
        )
    return report


def _merge_small_partitions(
    partitioner: "CinderellaPartitioner",
    min_fill: float,
    query_masks: Optional[Sequence[int]],
) -> MergeReport:
    config = partitioner.config
    catalog = partitioner.catalog
    threshold = min_fill * config.max_partition_size
    report = MergeReport()

    candidates = sorted(
        (p.pid for p in catalog if p.total_size < threshold),
        key=lambda pid: catalog.get(pid).total_size,
    )
    # a merged source is dropped at once, so neither loop meets it again
    for source_pid in candidates:
        source = catalog.get(source_pid)
        report.examined += 1
        targets = [
            target for target in catalog
            if target.pid != source_pid
            and target.total_size + source.total_size <= config.max_partition_size
            and not (query_masks is not None and _workload_distinguishes(
                source.mask, target.mask, query_masks
            ))
        ]
        best, best_rating, _rated = best_rated(
            source.mask, source.total_size, targets, config.weight
        )
        if best is None or best_rating < 0.0:
            if query_masks is not None:
                report.skipped_for_workload += 1
            continue
        # relocate every member through the catalog API (keeps synopses,
        # sizes, location map, the synopsis index, and the partition
        # content versions exact — the target's version bumps with every
        # arriving member, so cached query results for it invalidate)
        best_pid = best.pid
        for eid, mask, size in list(source.members()):
            catalog.remove_entity(eid, repair_starters=False)
            catalog.add_entity(best_pid, eid, mask, size)
            report.moves.append(Move(eid, source_pid, best_pid))
            partitioner._step("merge:member-moved")
        catalog.drop_partition(source_pid)
        partitioner._step("merge:source-dropped")
        report.merged.append((source_pid, best_pid))
        report.dropped_partitions.append(source_pid)
    return report
