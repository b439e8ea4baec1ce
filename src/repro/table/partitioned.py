"""The Cinderella-partitioned universal table.

This is the reproduction of the paper's prototype: users insert, update,
and delete against a universal table interface; every modification
triggers the Cinderella routine (the prototype used PostgreSQL triggers,
we call the partitioner directly); queries are rewritten to a pruned
UNION ALL over per-partition heap files.

The partitioner is purely logical — it returns a
:class:`~repro.core.outcomes.ModificationOutcome` describing partition
creations, drops, and entity moves, and this class mirrors those decisions
physically.  Physical moves read and rewrite the actual serialized
records, so split costs show up in the I/O statistics exactly as the paper
describes ("the performance will be dominated by the moving of the actual
entities from partition to partition").
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Optional

from repro.catalog.catalog import PartitionCatalog
from repro.catalog.dictionary import AttributeDictionary
from repro.core.config import CinderellaConfig
from repro.core.outcomes import ModificationOutcome
from repro.core.partitioner import CinderellaPartitioner
from repro.obs.counters import QueryPathCounters
from repro.query.cache import QueryResultCache
from repro.query.executor import (
    ExecutionResult,
    execute_uncached_full_scan,
    execute_union_all,
)
from repro.query.query import AttributeQuery
from repro.query.rewrite import UnionAllPlan, rewrite
from repro.storage.buffer import BufferPool
from repro.storage.entity import Entity
from repro.storage.heap import HeapFile, RecordId
from repro.storage.iostats import IOStats
from repro.storage.page import DEFAULT_PAGE_SIZE, check_record_size
from repro.storage.record import deserialize_record, serialize_record


class CinderellaTable:
    """A universal table horizontally partitioned online by Cinderella."""

    def __init__(
        self,
        config: Optional[CinderellaConfig] = None,
        dictionary: Optional[AttributeDictionary] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool: Optional[BufferPool] = None,
        result_cache: Optional[QueryResultCache] = None,
    ) -> None:
        self.dictionary = dictionary if dictionary is not None else AttributeDictionary()
        self.partitioner = CinderellaPartitioner(config)
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
        self._heaps: dict[int, HeapFile] = {}
        self._rids: dict[int, RecordId] = {}
        self._next_eid = 0

    @property
    def catalog(self) -> PartitionCatalog:
        return self.partitioner.catalog

    @property
    def config(self) -> CinderellaConfig:
        return self.partitioner.config

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
        """Insert an entity through the Cinderella routine."""
        eid = self._next_eid if entity_id is None else entity_id
        if eid in self._rids:
            raise ValueError(f"entity {eid} already exists")
        record = self.record_of(eid, attributes)
        # claimed only once the record exists: an id the format refuses
        # must not push the counter where every later id is refused too
        self._next_eid = max(self._next_eid, eid) + 1
        mask = self.dictionary.encode(attributes)
        outcome = self.partitioner.insert(eid, mask, payload_bytes=len(record))
        self._apply(outcome, fresh_records={eid: record})
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
        self._drop_heaps(outcome)
        if self.adapt is not None:
            self.adapt.observe_write(pid, version=self.catalog.version_clock)
        return outcome

    def update(self, eid: int, attributes: Mapping[str, Any]) -> ModificationOutcome:
        """Update an entity; Cinderella moves it only if a better partition wins."""
        if eid not in self._rids:
            raise KeyError(f"no entity {eid}")
        record = self.record_of(eid, attributes)
        mask = self.dictionary.encode(attributes)
        old_pid = self.catalog.partition_of(eid)
        outcome = self.partitioner.update(eid, mask, payload_bytes=len(record))
        if outcome.in_place:
            heap = self._heaps[old_pid]
            self._rids[eid] = heap.replace(self._rids[eid], record)
        else:
            # the entity leaves its old partition; its first move reads the
            # new record, the old one is discarded here
            self._heaps[old_pid].delete(self._rids.pop(eid))
            self._apply(outcome, fresh_records={eid: record})
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
    def _apply(
        self, outcome: ModificationOutcome, fresh_records: dict[int, bytes]
    ) -> None:
        """Replay an outcome's moves against the heap files, in order.

        ``fresh_records`` holds serialized records for entities that are
        not yet stored anywhere (the incoming insert / the updated record).
        """
        for pid in outcome.created_partitions:
            self._heaps[pid] = HeapFile(
                page_size=self.page_size, io=self.io, buffer_pool=self.buffer_pool
            )
        for move in outcome.moves:
            if move.eid in fresh_records:
                record = fresh_records.pop(move.eid)
            else:
                source_heap = self._heaps[move.from_pid]
                rid = self._rids.pop(move.eid)
                record = source_heap.read(rid)
                source_heap.delete(rid)
            self._rids[move.eid] = self._heaps[move.to_pid].insert(record)
        self._drop_heaps(outcome)

    def _drop_heaps(self, outcome: ModificationOutcome) -> None:
        for pid in outcome.dropped_partitions:
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
        heap = self._heaps[partition.pid] = HeapFile(
            page_size=self.page_size, io=self.io, buffer_pool=self.buffer_pool
        )
        for eid, attributes in members:
            if eid in self._rids:
                raise ValueError(f"entity {eid} restored twice")
            record = serialize_record(eid, attributes, self.dictionary)
            mask = self.dictionary.encode(attributes)
            size = self.config.size_model.entity_size(mask, len(record))
            self.catalog.add_entity(partition.pid, eid, mask, size)
            self._rids[eid] = heap.insert(record)
            self._next_eid = max(self._next_eid, eid) + 1
        return partition.pid

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def merge_small_partitions(self, min_fill: float = 0.25):
        """Merge under-filled partitions (see :mod:`repro.maintenance.merger`)
        and mirror the relocations physically.

        Returns the :class:`~repro.maintenance.merger.MergeReport`.
        """
        from repro.maintenance.merger import merge_small_partitions

        report = merge_small_partitions(self.partitioner, min_fill=min_fill)
        for move in report.moves:
            source_heap = self._heaps[move.from_pid]
            rid = self._rids.pop(move.eid)
            record = source_heap.read(rid)
            source_heap.delete(rid)
            self._rids[move.eid] = self._heaps[move.to_pid].insert(record)
        for pid in report.dropped_partitions:
            heap = self._heaps.pop(pid)
            heap.free()
            if self.result_cache is not None:
                self.result_cache.invalidate_partition(pid)
        return report

    def reorganize(
        self,
        config: Optional[CinderellaConfig] = None,
        query_masks=None,
        order: str = "size",
    ):
        """Rebuild the partitioning offline and mirror it physically.

        Runs :func:`repro.txn.ops.atomic_reorganize` on the logical
        partitioner (which also re-stamps every partition version past
        the replaced catalog's clock, so no pre-reorganization cache
        entry can ever be served again), then rebuilds the heap files to
        match the adopted layout.  Returns the
        :class:`~repro.maintenance.reorganizer.ReorganizationReport`.
        """
        from repro.txn.ops import atomic_reorganize

        attributes_by_eid = {
            entity.entity_id: entity.attributes for entity in self.scan()
        }
        report = atomic_reorganize(
            self.partitioner, config, query_masks=query_masks, order=order
        )
        for heap in self._heaps.values():
            heap.free()
        self._heaps = {}
        self._rids = {}
        for partition in self.catalog:
            heap = self._heaps[partition.pid] = HeapFile(
                page_size=self.page_size, io=self.io, buffer_pool=self.buffer_pool
            )
            for eid, _mask, _size in partition.members():
                record = serialize_record(
                    eid, attributes_by_eid[eid], self.dictionary
                )
                self._rids[eid] = heap.insert(record)
        return report

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

    def execute(self, query: AttributeQuery) -> ExecutionResult:
        """Rewrite and execute a query over the surviving partitions.

        The fast path end to end: survivors resolved through the
        inverted synopsis index when the catalog carries one, branch
        results served from the result cache when one is attached.
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
        problems = self.partitioner.check_invariants()
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
                record = heap._pages[rid.page].read(rid.slot)
            except (IndexError, KeyError):
                problems.append(f"rid of entity {eid} points at no record")
                continue
            stored_eid, attributes = deserialize_record(record, self.dictionary)
            if stored_eid != eid:
                problems.append(f"rid of entity {eid} points at record {stored_eid}")
                continue
            # the pruned scan skips a record by this mask, undecoded
            if self.dictionary.encode(attributes) != self.catalog.get(pid).mask_of(eid):
                problems.append(
                    f"entity {eid}: stored attributes differ from its catalog synopsis"
                )
        return problems
