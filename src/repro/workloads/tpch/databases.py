"""Access-path adapters for the Table I experiment.

Table I compares the same 22-query workload over two access paths:

* :class:`StandardTPCHDatabase` — the "Standard TPC-H" scenario: every
  table lives in its own heap file and is read with a plain full scan.
* :class:`CinderellaTPCHDatabase` — the "Cinderella I/II/III" scenarios:
  all rows of all tables are loaded as entities into one
  Cinderella-partitioned universal table, and each TPC-H table is read
  through a schema-emulating :class:`~repro.table.views.TableView`
  (a pruned UNION ALL plus projection to the table schema).

Both adapters satisfy the :class:`~repro.workloads.tpch.queries.Database`
protocol and accumulate :class:`~repro.query.executor.ExecutionStats`
across the table reads a query performs, so the harness can report both
wall-clock and cost-model times per query and in total.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.config import CinderellaConfig
from repro.query.executor import ExecutionStats, scan_heap
from repro.storage.heap import HeapFile
from repro.storage.iostats import IOStats
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.record import serialize_record
from repro.table.partitioned import CinderellaTable
from repro.table.views import TableView
from repro.workloads.tpch.dbgen import Row, TPCHData
from repro.workloads.tpch.schema import TABLE_BY_NAME


def _merge(total: ExecutionStats, delta: ExecutionStats) -> None:
    total.partitions_total += delta.partitions_total
    total.partitions_scanned += delta.partitions_scanned
    total.partitions_pruned += delta.partitions_pruned
    total.entities_read += delta.entities_read
    total.rows_returned += delta.rows_returned
    total.pages_read += delta.pages_read
    total.bytes_read += delta.bytes_read
    total.union_branches += delta.union_branches


def _every_row(_row: Row) -> bool:
    return True


def _as_is(row: Row) -> Row:
    return row


class StandardTPCHDatabase:
    """Regular TPC-H tables: one heap file per table, full scans."""

    def __init__(self, data: TPCHData, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        from repro.catalog.dictionary import AttributeDictionary

        self.scale_factor = data.scale_factor
        self.dictionary = AttributeDictionary()
        self.io = IOStats()
        self._heaps: dict[str, HeapFile] = {}
        self.stats = ExecutionStats()
        eid = 0
        for name in data.table_names():
            heap = HeapFile(page_size=page_size, io=self.io)
            for row in data.table(name):
                record = serialize_record(eid, row, self.dictionary)
                heap.insert(record, self.dictionary.encode(row))
                eid += 1
            self._heaps[name] = heap

    def table(self, name: str) -> Iterator[Row]:
        """Full scan of one table's heap, accumulating read statistics."""
        rows: list[Row] = []
        self.stats.partitions_total += 1
        self.stats.partitions_scanned += 1
        scan_heap(
            self._heaps[name], self.dictionary, self.stats, rows,
            _every_row, _as_is,
        )
        yield from rows

    def pop_stats(self) -> ExecutionStats:
        """Return and reset the accumulated statistics."""
        stats = self.stats
        self.stats = ExecutionStats()
        return stats


class CinderellaTPCHDatabase:
    """TPC-H in a Cinderella-partitioned universal table, read via views."""

    def __init__(
        self,
        data: TPCHData,
        config: CinderellaConfig,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.scale_factor = data.scale_factor
        self.universal = CinderellaTable(config=config, page_size=page_size)
        self.load_outcomes = []
        for name in data.table_names():
            for row in data.table(name):
                self.load_outcomes.append(self.universal.insert(row))
        self.views: dict[str, TableView] = {
            name: TableView(name, TABLE_BY_NAME[name].columns, self.universal)
            for name in data.table_names()
        }
        self.stats = ExecutionStats()

    def table(self, name: str) -> Iterator[Row]:
        """Materialize the schema-emulating view for one table."""
        view = self.views[name]
        yield from view.rows()
        if view.last_stats is not None:
            _merge(self.stats, view.last_stats)

    def pop_stats(self) -> ExecutionStats:
        """Return and reset the accumulated statistics."""
        stats = self.stats
        self.stats = ExecutionStats()
        return stats

    def partition_count(self) -> int:
        return len(self.universal.catalog)

    def recovered_schema(self) -> dict[str, tuple[str, ...]]:
        """Attribute sets of the partitions Cinderella formed.

        On perfectly regular data every partition's synopsis should equal
        one TPC-H table's column set — "Cinderella finds only partitions
        which exactly fit the TPC-H schema" (Section V-C).
        """
        return {
            f"partition_{partition.pid}": self.universal.dictionary.decode(
                partition.mask
            )
            for partition in self.universal.catalog
        }

    def schema_is_exact(self) -> bool:
        """True when every partition maps to exactly one TPC-H table."""
        table_columns = {
            frozenset(schema.columns) for schema in TABLE_BY_NAME.values()
        }
        return all(
            frozenset(columns) in table_columns
            for columns in self.recovered_schema().values()
        )
