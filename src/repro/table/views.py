"""Schema-emulating views (the TPC-H experiment's access path).

For the regular-data experiment (Section V-C) the paper loads TPC-H into a
Cinderella-partitioned universal table and emulates the standard TPC-H
tables with views over the partitions.  :class:`TableView` is that
emulation: a named relation defined by a set of columns, materialized on
demand as a pruned UNION ALL over the partitions whose synopses contain
all discriminating columns.

Because TPC-H data is perfectly regular and column names are disjoint
across tables (``l_…``, ``o_…``, …), Cinderella recovers partitions that
each hold entities of exactly one table — the view then prunes every
foreign partition, and the only residual cost is the union overhead that
Table I quantifies.
A view is an ``all``-mode attribute query: it plans and scans through
the code of every other read path, so its costs are charged alike.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, TYPE_CHECKING

from repro.query.executor import ExecutionStats, scan_heap, union_branches
from repro.query.query import AttributeQuery
from repro.query.rewrite import UnionAllPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.table.partitioned import CinderellaTable


class TableView:
    """A regular-table view over a Cinderella-partitioned universal table."""

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        table: "CinderellaTable",
        key_columns: Optional[Sequence[str]] = None,
    ) -> None:
        """Define a view.

        Args:
            name: the emulated table's name (e.g. ``lineitem``).
            columns: the emulated table's full column list; rows are
                projected to these.
            table: the partitioned universal table to read from.
            key_columns: the columns that *discriminate* membership — an
                entity belongs to the view iff it instantiates all of
                them.  Defaults to all ``columns``, which is exact for
                NOT NULL schemas like TPC-H.
        """
        if not columns:
            raise ValueError("a view needs at least one column")
        self.name = name
        self.columns = tuple(columns)
        self.key_columns = tuple(key_columns) if key_columns else self.columns
        self.table = table
        #: statistics of the most recent materialization
        self.last_stats: Optional[ExecutionStats] = None

    def _query(self) -> AttributeQuery:
        return AttributeQuery(self.key_columns, mode="all")

    def plan(self) -> UnionAllPlan:
        """The pruned UNION ALL plan materializing this view."""
        return self.table.plan(self._query())

    def rows(self) -> Iterator[dict[str, Any]]:
        """Materialize the view: scan surviving partitions, project rows.

        Accumulates :class:`ExecutionStats` in :attr:`last_stats` so the
        TPC-H harness can charge the view's scan and union-projection
        costs to the query that consumed it.
        """
        plan = self.plan()
        stats = ExecutionStats(
            partitions_total=plan.partitions_total,
            partitions_pruned=len(plan.pruned_pids),
            union_branches=union_branches(
                plan.partitions_total, len(plan.branch_pids)
            ),
        )
        self.last_stats = stats
        columns = self.columns

        def project(attributes: dict[str, Any]) -> dict[str, Any]:
            return {name: attributes.get(name) for name in columns}

        for pid in plan.branch_pids:
            stats.partitions_scanned += 1
            rows: list[dict[str, Any]] = []
            scan_heap(
                self.table.heap_of(pid), self.table.dictionary, stats, rows,
                plan.query.matches, project,
            )
            yield from rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TableView({self.name}, {len(self.columns)} columns)"
