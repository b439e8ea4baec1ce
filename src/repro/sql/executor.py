"""Execution of parsed SELECT statements against universal tables.

Every layout runs the attribute-query path's own code: the WHERE
clause's pruning clauses become clause masks for the one rule of
:mod:`repro.query.pruning`, then each surviving branch is scanned.  A
:class:`~repro.table.partitioned.CinderellaTable`, over whatever
partitioner lays it out (the unpartitioned universal table is its
one-partition layout), plans through
:func:`~repro.query.rewrite.prune_catalog` (index resolution, ascending
pid) and scans with :func:`~repro.query.executor.scan_heap`; a
:class:`~repro.query.snapshot.TableSnapshot`, perhaps ``scoped()`` to
some shards, prunes its partition views and scans their decoded records
(no pages or bytes read: the serving layer's lock-free read path).
Results carry the same
:class:`~repro.query.executor.ExecutionStats` as attribute queries, so
the cost model applies unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Union

from repro.query.executor import ExecutionStats, scan_heap, union_branches
from repro.query.pruning import prune
from repro.query.rewrite import prune_catalog
from repro.query.snapshot import TableSnapshot
from repro.sql.ast import OrderItem, SelectStatement
from repro.sql.compiler import compile_predicate, pruning_clauses
from repro.sql.parser import parse
from repro.table.partitioned import CinderellaTable

Table = Union[CinderellaTable, TableSnapshot]


@dataclass
class SqlResult:
    """Rows plus accounting for one executed SQL statement."""

    rows: list[dict[str, Any]]
    stats: ExecutionStats
    statement: SelectStatement
    #: partition ids pruned by the WHERE clause
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


def _projection(statement: SelectStatement) -> Callable[[dict], dict]:
    if statement.columns is None:  # SELECT *: the entity's own attributes
        return dict
    columns = statement.columns
    return lambda attributes: {name: attributes.get(name) for name in columns}


def _every_row(_attributes: dict) -> bool:
    return True


def execute_statement(statement: SelectStatement, table: Table) -> SqlResult:
    """Execute a parsed statement: prune, then scan each branch."""
    where = statement.where
    matches = compile_predicate(where) if where is not None else _every_row
    project = _projection(statement)
    rows: list[dict[str, Any]] = []
    started = time.perf_counter()
    masks = [
        table.dictionary.encode_known(clause)
        for clause in (pruning_clauses(where) if where is not None else [])
    ]
    if isinstance(table, TableSnapshot):
        views, pruned_views = prune(
            ((view, view.mask) for view in table.views), masks
        )
        pruned = tuple(view.pid for view in pruned_views)
        scans = [view.scan for view in views]
    else:
        pids, pruned = prune_catalog(masks, table.catalog)
        scans = [
            partial(scan_heap, table.heap_of(pid), table.dictionary)
            for pid in pids
        ]
    total = len(scans) + len(pruned)
    stats = ExecutionStats(
        partitions_total=total,
        partitions_pruned=len(pruned),
        union_branches=union_branches(total, len(scans)),
    )
    for scan in scans:
        stats.partitions_scanned += 1
        scan(stats, rows, matches, project)

    rows = _order_and_limit(rows, statement)
    stats.rows_returned = len(rows)
    stats.wall_time_s = time.perf_counter() - started
    return SqlResult(rows, stats, statement, pruned)


def execute(sql: str, table: Table) -> SqlResult:
    """Parse and execute one SELECT statement."""
    return execute_statement(parse(sql), table)
