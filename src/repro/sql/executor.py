"""Execution of parsed SELECT statements against universal tables.

Works with all three table layouts:

* on a :class:`~repro.table.partitioned.CinderellaTable`, the WHERE
  clause's pruning clauses eliminate partitions before any data is
  touched (the SQL-level generalisation of the prototype's rewrite);
* on a :class:`~repro.query.snapshot.TableSnapshot`, the same pruning
  runs over the snapshot's immutable partition views — records are
  already decoded, so no pages or bytes are read (the serving layer's
  lock-free read path; a snapshot ``scoped()`` to some shards answers
  for those);
* on a :class:`~repro.table.universal.UniversalTable`, the statement is a
  plain filtered full scan.

Results carry the same :class:`~repro.query.executor.ExecutionStats`
the attribute-query path produces, so the cost model applies unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Union

from repro.query.executor import ExecutionStats
from repro.query.snapshot import TableSnapshot
from repro.sql.ast import OrderItem, SelectStatement
from repro.sql.compiler import compile_predicate, pruning_clauses
from repro.sql.parser import parse
from repro.storage.record import deserialize_record
from repro.table.partitioned import CinderellaTable
from repro.table.universal import UniversalTable

Table = Union[CinderellaTable, TableSnapshot, UniversalTable]


@dataclass
class SqlResult:
    """Rows plus accounting for one executed SQL statement."""

    rows: list[dict[str, Any]]
    stats: ExecutionStats
    statement: SelectStatement
    #: partition ids pruned by the WHERE clause (empty on universal tables)
    pruned_pids: tuple[int, ...] = field(default=())


def _sort_key(item: OrderItem):
    column = item.column

    def key(row: dict[str, Any]):
        value = row.get(column)
        # total order over mixed content: NULLs first, then by type family
        if value is None:
            return (0, "", 0.0, "")
        if isinstance(value, bool):
            return (1, "bool", float(value), "")
        if isinstance(value, (int, float)):
            return (1, "number", float(value), "")
        return (2, type(value).__name__, 0.0, str(value))

    return key


def _order_and_limit(
    rows: list[dict[str, Any]], statement: SelectStatement
) -> list[dict[str, Any]]:
    for item in reversed(statement.order_by):
        rows.sort(key=_sort_key(item), reverse=item.descending)
    if statement.limit is not None:
        return rows[: statement.limit]
    return rows


def _project(attributes: dict[str, Any], statement: SelectStatement) -> dict:
    if statement.columns is None:  # SELECT *: the entity's own attributes
        return dict(attributes)
    return {name: attributes.get(name) for name in statement.columns}


def execute_statement(statement: SelectStatement, table: Table) -> SqlResult:
    """Execute a parsed statement against either table layout."""
    predicate = (
        compile_predicate(statement.where) if statement.where is not None else None
    )
    stats = ExecutionStats()
    rows: list[dict[str, Any]] = []
    pruned: tuple[int, ...] = ()
    started = time.perf_counter()

    if isinstance(table, TableSnapshot):
        clauses = (
            pruning_clauses(statement.where) if statement.where is not None else []
        )
        clause_masks = [
            table.dictionary.encode_known(clause) for clause in clauses
        ]
        # a clause none of whose attributes exist anywhere ⇒ empty result
        if any(clause and mask == 0 for clause, mask in zip(clauses, clause_masks)):
            stats.partitions_total = len(table.views)
            stats.partitions_pruned = len(table.views)
            stats.wall_time_s = time.perf_counter() - started
            return SqlResult(
                [], stats, statement, tuple(v.pid for v in table.views)
            )
        pruned_list = []
        stats.partitions_total = len(table.views)
        for view in table.views:
            if any(view.mask & mask == 0 for mask in clause_masks if mask):
                pruned_list.append(view.pid)
                continue
            stats.partitions_scanned += 1
            stats.union_branches += 1
            # records are already decoded in the snapshot: no pages or
            # bytes are read on this path
            for _eid, attributes in view.entities():
                stats.entities_read += 1
                if predicate is None or predicate(attributes):
                    rows.append(_project(attributes, statement))
                    stats.rows_returned += 1
        stats.partitions_pruned = len(pruned_list)
        pruned = tuple(pruned_list)
    elif isinstance(table, CinderellaTable):
        clauses = (
            pruning_clauses(statement.where) if statement.where is not None else []
        )
        clause_masks = [
            table.dictionary.encode_known(clause) for clause in clauses
        ]
        # a clause none of whose attributes exist anywhere ⇒ empty result
        if any(clause and mask == 0 for clause, mask in zip(clauses, clause_masks)):
            stats.partitions_total = len(table.catalog)
            stats.partitions_pruned = len(table.catalog)
            stats.wall_time_s = time.perf_counter() - started
            return SqlResult(
                [], stats, statement, tuple(p.pid for p in table.catalog)
            )
        surviving = []
        pruned_list = []
        for partition in table.catalog:
            if any(partition.mask & mask == 0 for mask in clause_masks if mask):
                pruned_list.append(partition.pid)
            else:
                surviving.append(partition.pid)
        stats.partitions_total = len(table.catalog)
        stats.partitions_pruned = len(pruned_list)
        pruned = tuple(pruned_list)
        for pid in surviving:
            heap = table.heap_of(pid)
            stats.partitions_scanned += 1
            stats.union_branches += 1
            before = heap.io.snapshot()
            for _rid, record in heap.scan():
                _eid, attributes = deserialize_record(record, table.dictionary)
                stats.entities_read += 1
                if predicate is None or predicate(attributes):
                    rows.append(_project(attributes, statement))
                    stats.rows_returned += 1
            delta = heap.io.delta_since(before)
            stats.pages_read += delta.pages_read
            stats.bytes_read += delta.bytes_read
    else:
        stats.partitions_total = 1
        stats.partitions_scanned = 1
        heap = table.heap
        before = heap.io.snapshot()
        for _rid, record in heap.scan():
            _eid, attributes = deserialize_record(record, table.dictionary)
            stats.entities_read += 1
            if predicate is None or predicate(attributes):
                rows.append(_project(attributes, statement))
                stats.rows_returned += 1
        delta = heap.io.delta_since(before)
        stats.pages_read += delta.pages_read
        stats.bytes_read += delta.bytes_read

    rows = _order_and_limit(rows, statement)
    stats.rows_returned = len(rows)
    stats.wall_time_s = time.perf_counter() - started
    return SqlResult(rows, stats, statement, pruned)


def execute(sql: str, table: Table) -> SqlResult:
    """Parse and execute one SELECT statement."""
    return execute_statement(parse(sql), table)
