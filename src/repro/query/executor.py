"""Query execution: scans, filtering, projection, and statistics.

The baseline execution is deliberately simple — the paper ran its
measurements without any indexes, so every query is a (pruned) sequence
of full partition scans.  What matters for the reproduction is the
*accounting*: the executor reports exactly how much data each query
touched, which feeds the cost model (:mod:`repro.cost.model`) that
stands in for the paper's wall-clock measurements.

Within a surviving partition, :func:`execute_union_all` given the
table's snapshot applies the pruning rule once more, per entity
(:func:`scan_view`, the read path of
:meth:`~repro.table.partitioned.CinderellaTable.execute`): an entity
whose stored record's mask misses the query is skipped before it is
decoded (:func:`~repro.query.pruning.surviving_records`).  The mask is
the entity's own attribute set, so it decides the match on its own; a
qualifying record is decoded in full the first time any query it
qualifies for reads it — once per change, not once per query.  Every
page is still charged to the partition's heap and every record still
counts, exactly as a heap scan would have charged them, so the cost
model sees the same query either way.  Without a snapshot a branch
reads its heap file through :func:`scan_heap`, which decodes every
record in full; so do the oracles (:func:`execute_uncached_full_scan`,
cache coherence), SQL, the schema views and TPC-H, trusting no entity
synopsis.

On top of that baseline sits the read-side fast path: when a
:class:`~repro.query.cache.QueryResultCache` is passed in, each UNION
ALL branch first consults the cache under the partition's current
content version and only scans on a miss, storing the partition's
contribution for the next repetition.  Cache hits charge no
pages/bytes/entities — skipping that I/O is the point — but do count
their rows, so results are accounted identically either way.
:func:`execute_uncached_full_scan` is the other extreme — every
partition scanned, no pruning, no cache — kept as the differential
oracle and the bench baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from repro.obs import runtime as obs
from repro.query.pruning import clause_masks
from repro.query.query import AttributeQuery
from repro.query.rewrite import UnionAllPlan
from repro.storage.record import deserialize_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.catalog import PartitionCatalog
    from repro.catalog.dictionary import AttributeDictionary
    from repro.obs.counters import QueryPathCounters
    from repro.query.cache import QueryResultCache
    from repro.query.snapshot import PartitionView, TableSnapshot
    from repro.storage.heap import HeapFile


@dataclass
class ExecutionStats:
    """Everything a query execution touched.

    ``union_branches`` drives the prototype-overhead term of the cost
    model; :func:`union_branches` is its one rule.
    ``cache_hits``/``cache_misses`` count result-cache traffic for this
    one query; a hit branch contributes rows but no reads.
    """

    partitions_total: int = 0
    partitions_scanned: int = 0
    partitions_pruned: int = 0
    entities_read: int = 0
    rows_returned: int = 0
    pages_read: int = 0
    bytes_read: int = 0
    union_branches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time_s: float = 0.0


def union_branches(partitions_total: int, branches: int) -> int:
    """The UNION ALL branches a plan reading *branches* of a layout's
    *partitions_total* partitions pays for.

    A layout of at most one partition is a plain relation — the paper's
    unpartitioned universal table — read without any UNION ALL, so it
    pays none; over more partitions every branch read (or served from
    the cache) is one.
    """
    return branches if partitions_total > 1 else 0


@dataclass
class ExecutionResult:
    """Rows plus accounting for one executed query."""

    rows: list[dict[str, Any]]
    stats: ExecutionStats
    plan: Optional[UnionAllPlan] = None


def scan_heap(
    heap: "HeapFile",
    dictionary: "AttributeDictionary",
    stats: ExecutionStats,
    out_rows: list,
    matches: Callable[[dict[str, Any]], bool],
    project: Callable[[dict[str, Any]], Any],
) -> None:
    """Scan one heap file, appending ``project(attributes)`` for every
    record ``matches`` accepts: the read path's one heap scan.

    Charges page/byte reads through the heap's I/O stats and mirrors the
    deltas into *stats*.  Every page is read and every live record is
    decoded in full, counted as read and tested (there are no indexes,
    matching the paper's setup).
    """
    before = heap.io.snapshot()
    for _rid, record in heap.scan():
        _eid, attributes = deserialize_record(record, dictionary)
        stats.entities_read += 1
        if matches(attributes):
            out_rows.append(project(attributes))
            stats.rows_returned += 1
    delta = heap.io.delta_since(before)
    stats.pages_read += delta.pages_read
    stats.bytes_read += delta.bytes_read


def scan_view(
    view: "PartitionView",
    heap: "HeapFile",
    stats: ExecutionStats,
    out_rows: list,
    matches: Callable[[dict[str, Any]], bool],
    project: Callable[[dict[str, Any]], Any],
    clauses: Sequence[int],
) -> None:
    """:func:`scan_heap` of *heap*, answered from *view*, a snapshot's
    view of the same partition at the heap's current state, with
    entities pruned by the masks their records carry against the
    query's *clauses* (:meth:`~repro.query.snapshot.PartitionView.scan`).

    The rows are the heap scan's, in its order; *heap* is charged the
    pages, bytes and records that scan would have charged
    (:meth:`~repro.storage.heap.HeapFile.charge_scan`), and *stats*
    mirrors them — but no record is read or decoded here.
    """
    before = heap.io.snapshot()
    heap.charge_scan()
    view.scan(stats, out_rows, matches, project, clauses=clauses)
    delta = heap.io.delta_since(before)
    stats.pages_read += delta.pages_read
    stats.bytes_read += delta.bytes_read


def execute_union_all(
    plan: UnionAllPlan,
    heaps: dict[int, "HeapFile"],
    dictionary: "AttributeDictionary",
    catalog: Optional["PartitionCatalog"] = None,
    cache: Optional["QueryResultCache"] = None,
    counters: Optional["QueryPathCounters"] = None,
    snapshot: Optional[Callable[[], "TableSnapshot"]] = None,
) -> ExecutionResult:
    """Execute a UNION ALL plan over partition heap files.

    Each branch that scans reads its heap file, every record decoded in
    full (:func:`scan_heap`).  With *cache* (which requires *catalog*
    for the content versions), each branch is first looked up under the
    partition's current version; only misses scan, and their
    per-partition rows are stored for the next execution of the same
    query.  Row order is identical with and without a cache: branches
    run in plan order and a cached branch contributes exactly the rows
    its scan produced.

    With *snapshot*, a callable returning a
    :class:`~repro.query.snapshot.TableSnapshot` current with *heaps*
    and *catalog*, the branches that scan read the snapshot's views
    instead, entities pruned by their stored masks (:func:`scan_view`),
    charged like the heap scans they replace.  It is called once, at the
    first branch that scans, so a query the cache answers whole never
    brings a snapshot current.
    """
    if cache is not None and catalog is None:
        raise ValueError("a result cache requires the catalog for versions")
    query = plan.query
    clauses = clause_masks(query, dictionary) if snapshot is not None else ()
    stats = ExecutionStats(
        partitions_total=plan.partitions_total,
        partitions_pruned=len(plan.pruned_pids),
        union_branches=union_branches(
            plan.partitions_total, len(plan.branch_pids)
        ),
    )
    rows: list[dict[str, Any]] = []
    current = None  # the snapshot, once a branch scans
    started = time.perf_counter()
    with obs.span(
        "query.execute", branches=len(plan.branch_pids), cached=cache is not None
    ) as span:
        for pid in plan.branch_pids:
            branch_rows = rows
            if cache is not None:
                version = catalog.version_of(pid)
                cached = cache.lookup(query, pid, version)
                if cached is not None:
                    stats.cache_hits += 1
                    stats.rows_returned += len(cached)
                    rows.extend(cached)
                    if counters is not None:
                        counters.rows_served_from_cache += len(cached)
                    continue
                stats.cache_misses += 1
                branch_rows = []
            stats.partitions_scanned += 1
            if snapshot is not None and current is None:
                current = snapshot()
            with obs.span("query.scan", pid=pid):
                if current is None:
                    scan_heap(
                        heaps[pid], dictionary, stats, branch_rows,
                        query.matches, query.project,
                    )
                else:
                    scan_view(
                        current.view_of(pid), heaps[pid], stats, branch_rows,
                        query.matches, query.project, clauses,
                    )
            if cache is not None:
                cache.store(query, pid, version, branch_rows)
                rows.extend(branch_rows)
        if span.is_recording:
            span.set("cache_hits", stats.cache_hits)
            span.set("cache_misses", stats.cache_misses)
            span.set("rows", stats.rows_returned)
    stats.wall_time_s = time.perf_counter() - started
    if obs.is_enabled():
        obs.observe(
            "repro_query_latency_seconds",
            stats.wall_time_s,
            help_text="Wall time of one UNION ALL execution",
        )
    if counters is not None:
        counters.queries_total += 1
        counters.partitions_considered += stats.partitions_total
        counters.partitions_pruned += stats.partitions_pruned
        counters.partitions_scanned += stats.partitions_scanned
    return ExecutionResult(rows=rows, stats=stats, plan=plan)


def execute_uncached_full_scan(
    query: AttributeQuery,
    heaps: dict[int, "HeapFile"],
    dictionary: "AttributeDictionary",
) -> ExecutionResult:
    """Scan every partition: no pruning, no index, no cache.

    The naive reference executor — the differential oracle the fast
    path is tested against, and the baseline the query-path bench
    measures its speedup over.  Partitions run in ascending pid order,
    matching the plan order of :func:`repro.query.rewrite.rewrite`, so
    results are bit-identical to the fast path's.
    """
    stats = ExecutionStats(
        partitions_total=len(heaps),
        union_branches=union_branches(len(heaps), len(heaps)),
    )
    rows: list[dict[str, Any]] = []
    started = time.perf_counter()
    for pid in sorted(heaps):
        stats.partitions_scanned += 1
        scan_heap(
            heaps[pid], dictionary, stats, rows, query.matches, query.project
        )
    stats.wall_time_s = time.perf_counter() - started
    return ExecutionResult(rows=rows, stats=stats)

