"""The universal table, laid out by an online partitioner.

This is the reproduction of the paper's prototype: users insert, update,
and delete against a universal table interface; every modification
triggers the partitioning routine (the prototype used PostgreSQL
triggers, we call the partitioner directly); queries are rewritten to a
pruned UNION ALL over per-partition heap files, answered from the
table's own snapshot of them (:mod:`repro.query.snapshot`), brought
current by the first read after writes, so a record is decoded once per
change rather than once per query.

The layout is Cinderella by default, or any
:class:`~repro.core.partitioner.Partitioner` — the hash and round-robin
baselines, and the paper's unpartitioned universal table, which is the
one-partition layout (:func:`unpartitioned_table`), read through the same
executor as every other layout.

The partitioner is purely logical — it returns a
:class:`~repro.core.outcomes.ModificationOutcome` describing partition
creations, drops, and entity moves, and this class mirrors those decisions
physically.  Physical moves read and rewrite the actual serialized
records, so split costs show up in the I/O statistics exactly as the paper
describes ("the performance will be dominated by the moving of the actual
entities from partition to partition").
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from repro.catalog.catalog import PartitionCatalog
from repro.catalog.dictionary import AttributeDictionary
from repro.core.config import CinderellaConfig
from repro.core.outcomes import ModificationOutcome, Move
from repro.core.partitioner import CinderellaPartitioner, Partitioner
from repro.maintenance.merger import MergeReport, merge_small_partitions
from repro.maintenance.reorganizer import ReorganizationReport, reorganize
from repro.obs import runtime as obs
from repro.obs.counters import QueryPathCounters
from repro.query.cache import QueryResultCache
from repro.query.executor import (
    ExecutionResult,
    execute_uncached_full_scan,
    execute_union_all,
)
from repro.query.query import AttributeQuery
from repro.query.rewrite import UnionAllPlan, rewrite
from repro.query.snapshot import SnapshotManager, TableSnapshot
from repro.storage.buffer import BufferPool
from repro.storage.entity import Entity
from repro.storage.heap import HeapFile, RecordId
from repro.storage.iostats import IOStats
from repro.storage.page import DEFAULT_PAGE_SIZE, check_record_size
from repro.storage.record import (
    StoredRecord, deserialize_record, serialize_record,
)


def _count_txn(outcome: str) -> None:
    obs.inc(
        "repro_txn_ops_total",
        help_text="Atomic catalog operations by kind and outcome",
        kind="merge", outcome=outcome,
    )


class CinderellaTable:
    """A universal table horizontally partitioned online — by Cinderella
    under *config*, or by any other *partitioner* (not both)."""

    def __init__(
        self,
        config: Optional[CinderellaConfig] = None,
        dictionary: Optional[AttributeDictionary] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool: Optional[BufferPool] = None,
        result_cache: Optional[QueryResultCache] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> None:
        if partitioner is None:
            partitioner = CinderellaPartitioner(config)
        elif config is not None:
            raise ValueError("pass a config or a partitioner, not both")
        self.dictionary = dictionary if dictionary is not None else AttributeDictionary()
        self.partitioner = partitioner
        #: the partitioner again when it is Cinderella, else None — the one
        #: check behind what only Cinderella has: its config, merges and
        #: reorganizations (with their crash hook and split count) and its
        #: capacity bound in :meth:`check_consistency`
        self._cinderella = (
            partitioner if isinstance(partitioner, CinderellaPartitioner) else None
        )
        self.io = IOStats()
        self.page_size = page_size
        self.buffer_pool = buffer_pool
        #: read-side fast-path telemetry (always collected — it is cheap)
        self.query_counters = QueryPathCounters()
        self.result_cache = result_cache
        if result_cache is not None and result_cache.counters is None:
            result_cache.counters = self.query_counters
        #: optional adaptation hook (an
        #: :class:`~repro.adapt.controller.AdaptationController` installs
        #: itself here via ``bind_table``); when set, every executed query
        #: and applied modification feeds its workload trace
        self.adapt = None
        #: the read path's snapshots (see :meth:`snapshot`)
        self._snapshots = SnapshotManager(retain=1)
        self._heaps: dict[int, HeapFile] = {}
        self._rids: dict[int, RecordId] = {}
        self._next_eid = 0

    @property
    def catalog(self) -> PartitionCatalog:
        return self.partitioner.catalog

    @property
    def config(self) -> CinderellaConfig:
        return self._only_cinderella("config").config

    def _only_cinderella(self, what: str) -> CinderellaPartitioner:
        if self._cinderella is None:
            raise TypeError(
                f"{what} is Cinderella's; this table is laid out by "
                f"{type(self.partitioner).__name__}"
            )
        return self._cinderella

    # ------------------------------------------------------------------
    # data manipulation (the trigger bodies of the prototype)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rids)

    def __contains__(self, eid: int) -> bool:
        return eid in self._rids

    def entity_ids(self) -> list[int]:
        """Stored entity ids in ascending order (resync paging, audits)."""
        return sorted(self._rids)

    def insert(
        self, attributes: Mapping[str, Any], entity_id: Optional[int] = None
    ) -> ModificationOutcome:
        """Insert an entity through the partitioner's routine."""
        eid = self._next_eid if entity_id is None else entity_id
        if eid in self._rids:
            raise ValueError(f"entity {eid} already exists")
        record = self.record_of(eid, attributes)
        # claimed only once the record exists: an id the format refuses
        # must not push the counter where every later id is refused too
        self._next_eid = max(self._next_eid, eid) + 1
        mask = self.dictionary.encode(attributes)
        outcome = self.partitioner.insert(eid, mask, payload_bytes=len(record))
        self._apply(outcome, fresh_records={eid: StoredRecord(record, mask)})
        self._observe_write(outcome)
        return outcome

    def delete(self, eid: int) -> ModificationOutcome:
        """Delete an entity; drops its partition when it becomes empty."""
        if eid not in self._rids:
            raise KeyError(f"no entity {eid}")
        pid = self.catalog.partition_of(eid)
        outcome = self.partitioner.delete(eid)
        heap = self._heaps[pid]
        heap.delete(self._rids.pop(eid))
        self._drop_heaps(outcome.dropped_partitions)
        if self.adapt is not None:
            self.adapt.observe_write(pid, version=self.catalog.version_clock)
        return outcome

    def update(self, eid: int, attributes: Mapping[str, Any]) -> ModificationOutcome:
        """Update an entity; the partitioner decides whether it moves."""
        if eid not in self._rids:
            raise KeyError(f"no entity {eid}")
        record = self.record_of(eid, attributes)
        mask = self.dictionary.encode(attributes)
        old_pid = self.catalog.partition_of(eid)
        outcome = self.partitioner.update(eid, mask, payload_bytes=len(record))
        if outcome.in_place:
            heap = self._heaps[old_pid]
            self._rids[eid] = heap.replace(self._rids[eid], record, mask)
        else:
            # the entity leaves its old partition; its first move reads the
            # new record, the old one is discarded here
            self._heaps[old_pid].delete(self._rids.pop(eid))
            self._apply(outcome, fresh_records={eid: StoredRecord(record, mask)})
        self._observe_write(outcome)
        return outcome

    def record_of(self, eid: int, attributes: Mapping[str, Any]) -> bytes:
        """The record an entity is stored as; raises before anything is
        touched when the format or a page cannot hold it (a split's
        moves would outlive a catalog rollback)."""
        record = serialize_record(eid, attributes, self.dictionary)
        check_record_size(record, self.page_size)
        return record

    def _observe_write(self, outcome: ModificationOutcome) -> None:
        if self.adapt is not None and outcome.partition_id is not None:
            self.adapt.observe_write(
                outcome.partition_id, version=self.catalog.version_clock
            )

    # ------------------------------------------------------------------
    # physical mirroring of partitioner outcomes
    # ------------------------------------------------------------------
    def _new_heap(self) -> HeapFile:
        return HeapFile(
            page_size=self.page_size, io=self.io, buffer_pool=self.buffer_pool
        )

    def _apply(
        self, outcome: ModificationOutcome,
        fresh_records: dict[int, StoredRecord],
    ) -> None:
        """Replay an outcome's moves against the heap files, in order.

        ``fresh_records`` holds the records, with the masks the
        partitioner was given, of entities that are not yet stored
        anywhere (the incoming insert / the updated record).
        """
        for pid in outcome.created_partitions:
            self._heaps[pid] = self._new_heap()
        self._move_records(outcome.moves, fresh_records)
        self._drop_heaps(outcome.dropped_partitions)

    def _move_records(
        self,
        moves: Iterable[Move],
        fresh_records: Optional[dict[int, StoredRecord]] = None,
    ) -> None:
        """Carry each moved entity's stored record to its target — the
        object itself, so its mask and what a snapshot decoded and
        rendered for it move along; a fresh record is used by the
        entity's first move only."""
        for move in moves:
            stored = fresh_records.pop(move.eid, None) if fresh_records else None
            if stored is None:
                stored = self._heaps[move.from_pid].take(self._rids.pop(move.eid))
            self._rids[move.eid] = self._heaps[move.to_pid].place(stored)

    def _drop_heaps(self, dropped_partitions: Iterable[int]) -> None:
        for pid in dropped_partitions:
            heap = self._heaps.pop(pid)
            if len(heap):
                raise AssertionError(
                    f"dropping partition {pid} with {len(heap)} records left"
                )
            heap.free()
            if self.result_cache is not None:
                # memory hygiene only — version validation already keeps
                # the dropped pid's entries from ever being served
                self.result_cache.invalidate_partition(pid)

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def _restore_partition(self, members) -> int:
        """Recreate one partition with exact membership (snapshot load).

        *members* is a sequence of ``(entity_id, attributes)``; split
        starters are rebuilt by replaying the incremental rule over the
        stored member order.  Returns the fresh partition id.
        """
        partition = self.catalog.create_partition()
        heap = self._heaps[partition.pid] = self._new_heap()
        for eid, attributes in members:
            if eid in self._rids:
                raise ValueError(f"entity {eid} restored twice")
            record = serialize_record(eid, attributes, self.dictionary)
            mask = self.dictionary.encode(attributes)
            size = self.partitioner.size_model.entity_size(mask, len(record))
            self.catalog.add_entity(partition.pid, eid, mask, size)
            self._rids[eid] = heap.insert(record, mask)
            self._next_eid = max(self._next_eid, eid) + 1
        return partition.pid

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def merge_small_partitions(
        self, min_fill: float = 0.25, query_masks: Optional[Sequence[int]] = None
    ) -> MergeReport:
        """Merge under-filled partitions (see :mod:`repro.maintenance.merger`)
        atomically, then mirror the relocations physically.

        The logical pass runs inside one catalog transaction: a failure
        at any step — a crash injected through the partitioner's
        ``crash_hook`` included — rolls the catalog back exactly, and
        the heaps, untouched until the commit, still match it.
        """
        partitioner = self._only_cinderella("merge_small_partitions")
        txn = self.catalog.begin_transaction()
        with obs.span("txn.merge") as span:
            try:
                report = merge_small_partitions(partitioner, min_fill, query_masks)
            except BaseException as error:
                txn.rollback()
                obs.event(
                    "txn.rollback", kind="merge",
                    error=f"{type(error).__name__}: {error}",
                )
                _count_txn("rolled_back")
                raise
            txn.commit()
            _count_txn("committed")
            if span.is_recording:
                span.set(
                    "steps", len(report.moves) + len(report.dropped_partitions)
                )
        self._move_records(report.moves)
        self._drop_heaps(report.dropped_partitions)
        return report

    def reorganize(
        self,
        config: Optional[CinderellaConfig] = None,
        query_masks: Optional[Sequence[int]] = None,
        order: str = "size",
    ) -> ReorganizationReport:
        """Rebuild the partitioning offline and swap it in whole.

        The rebuild runs on a scratch partitioner and the new heaps are
        filled with the stored records themselves (no decode, and the
        same :class:`~repro.storage.record.StoredRecord` objects, so what
        a snapshot decoded and rendered for them carries over; the old
        heaps are charged a full scan); neither touches the live table,
        so a failure before the swap leaves it as it was.  The swap
        re-stamps every rebuilt partition version past the replaced
        catalog's clock, so no pre-reorganization cache entry can ever
        be served again.
        The returned report's ``partitioner`` is the table's own.
        """
        partitioner = self._only_cinderella("reorganize")
        report = reorganize(partitioner, config, query_masks, order)
        rebuilt = report.partitioner
        records = {}
        for heap in self._heaps.values():
            heap.charge_scan()
            for view in heap.page_views():
                for stored in view.records:
                    records[stored.eid] = stored
        heaps: dict[int, HeapFile] = {}
        rids: dict[int, RecordId] = {}
        for partition in rebuilt.catalog:
            heap = heaps[partition.pid] = self._new_heap()
            for eid in partition.entity_ids():
                rids[eid] = heap.place(records[eid])
        partitioner._step("reorganize:swap")
        # the rebuilt catalog restarts pids from zero; re-stamp all its
        # partition versions past the replaced catalog's clock so no
        # result-cache entry keyed against the old catalog can collide
        rebuilt.catalog.adopt_version_clock(partitioner.catalog.version_clock)
        partitioner.config = rebuilt.config
        partitioner.catalog = rebuilt.catalog
        partitioner.split_count += rebuilt.split_count
        partitioner.ratings_computed += rebuilt.ratings_computed
        for heap in self._heaps.values():
            heap.free()
        self._heaps = heaps
        self._rids = rids
        return replace(report, partitioner=partitioner)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, eid: int) -> Entity:
        pid = self.catalog.partition_of(eid)
        record = self._heaps[pid].read(self._rids[eid])
        entity_id, attributes = deserialize_record(record, self.dictionary)
        return Entity(entity_id, attributes)

    def scan(self) -> Iterator[Entity]:
        """Scan every partition (no pruning; for exports and tests)."""
        for pid in sorted(self._heaps):
            for _rid, record in self._heaps[pid].scan():
                entity_id, attributes = deserialize_record(record, self.dictionary)
                yield Entity(entity_id, attributes)

    def plan(self, query: AttributeQuery, use_index: bool = True) -> UnionAllPlan:
        """Rewrite a query into its pruned UNION ALL plan."""
        return rewrite(query, self.catalog, self.dictionary, use_index=use_index)

    def snapshot(self) -> TableSnapshot:
        """The table's latest snapshot, published first when a write has
        moved the catalog's version clock since (a clock that never
        repeats, through rollbacks and reorganizations alike).

        The publish rebuilds only the partitions that changed, from
        their heaps' page views, and charges no I/O; the snapshot is
        current until the next write.
        """
        latest = self._snapshots.latest
        if latest is None or latest.version_clock != self.catalog.version_clock:
            latest = self._snapshots.publish(self)
        return latest

    def execute(self, query: AttributeQuery) -> ExecutionResult:
        """Rewrite and execute a query over the surviving partitions.

        The fast path end to end: survivors resolved through the
        inverted synopsis index when the catalog carries one, branch
        results served from the result cache when one is attached, and
        every other branch read from :meth:`snapshot` — decoded records,
        charged the I/O the heap scan it replaces would have charged.
        """
        if self.catalog.index is not None:
            self.query_counters.index_resolutions += 1
        else:
            self.query_counters.catalog_scan_resolutions += 1
        result = execute_union_all(
            self.plan(query),
            self._heaps,
            self.dictionary,
            catalog=self.catalog,
            cache=self.result_cache,
            counters=self.query_counters,
            snapshot=self.snapshot,
        )
        if self.adapt is not None:
            self.adapt.observe_execution(query, result, self)
        return result

    def execute_naive(self, query: AttributeQuery) -> ExecutionResult:
        """Execute with no pruning, no index, no cache (the oracle path)."""
        return execute_uncached_full_scan(query, self._heaps, self.dictionary)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def entity_masks(self) -> dict[int, int]:
        """Entity synopsis masks, for the efficiency metric."""
        return {
            eid: mask
            for partition in self.catalog
            for eid, mask, _size in partition.members()
        }

    def data_bytes(self) -> int:
        return sum(heap.data_bytes() for heap in self._heaps.values())

    def partition_count(self) -> int:
        return len(self.catalog)

    def heap_of(self, pid: int) -> HeapFile:
        """The heap file storing one partition (benchmarks peek at these)."""
        return self._heaps[pid]

    def check_consistency(self) -> list[str]:
        """Logical/physical cross-check: catalog vs. heap contents."""
        problems = (self._cinderella or self.catalog).check_invariants()
        for pid, heap in self._heaps.items():
            if pid not in self.catalog:
                problems.append(f"heap for unknown partition {pid}")
                continue
            if len(heap) != len(self.catalog.get(pid)):
                problems.append(
                    f"partition {pid}: {len(self.catalog.get(pid))} catalog "
                    f"entities but {len(heap)} stored records"
                )
        for partition in self.catalog:
            if partition.pid not in self._heaps:
                problems.append(f"partition {partition.pid} has no heap file")
        for eid, rid in self._rids.items():
            if not self.catalog.has_entity(eid):
                problems.append(f"entity {eid} is stored but not in the catalog")
                continue
            pid = self.catalog.partition_of(eid)
            heap = self._heaps.get(pid)
            if heap is None:
                continue  # reported above: the partition has no heap file
            try:
                stored = heap._pages[rid.page].stored(rid.slot)
            except (IndexError, KeyError):
                problems.append(f"rid of entity {eid} points at no record")
                continue
            stored_eid, attributes = deserialize_record(stored.data, self.dictionary)
            if stored_eid != eid:
                problems.append(f"rid of entity {eid} points at record {stored_eid}")
                continue
            synopsis = self.catalog.get(pid).mask_of(eid)
            if self.dictionary.encode(attributes) != synopsis:
                problems.append(
                    f"entity {eid}: stored attributes differ from its catalog synopsis"
                )
            elif stored.mask != synopsis:
                # the snapshot reads skip a record by this mask, undecoded
                problems.append(
                    f"entity {eid}: stored record's mask differs from its "
                    f"catalog synopsis"
                )
        return problems


def unpartitioned_table(**table_args: Any) -> CinderellaTable:
    """The paper's unpartitioned universal table (Figure 1): the
    one-partition layout, which holds every entity in one heap file.

    *table_args* are :class:`CinderellaTable`'s, ``config`` and
    ``partitioner`` aside.
    """
    # imported here: repro.baselines loads NumPy (its vertical
    # comparators), which a table that never builds this layout — a
    # serving node — should not pay for in start-up time and memory
    from repro.baselines.round_robin import RoundRobinPartitioner

    return CinderellaTable(
        partitioner=RoundRobinPartitioner(math.inf), **table_args
    )
