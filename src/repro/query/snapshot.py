"""MVCC-style immutable table snapshots pinned to the version clock.

A :class:`TableSnapshot` is an immutable view of one
:class:`~repro.table.partitioned.CinderellaTable` at one value of the
catalog's monotonic version clock (the same clock the embedded table's
query result cache keys by).  Writers publish a fresh snapshot after
every committed batch; readers grab the latest snapshot and serve from
it without any locking at all — a query can never block on a writer,
and never observes a half-applied batch.  This is a serving node's
whole read path: latest snapshot → per-snapshot response cache →
per-partition and per-page chunk caches → decoded records — for the
whole table or, through :meth:`TableSnapshot.scoped`, for the shards of
a :class:`ShardScope` (the routing tier's reads): the same path, with
the scope as one more component of the cache keys.

It is the embedded table's read path too.  A
:class:`~repro.table.partitioned.CinderellaTable` owns one
``SnapshotManager(retain=1)`` and publishes lazily: the first read
after writes (:meth:`~repro.table.partitioned.CinderellaTable.snapshot`)
brings it current, and :meth:`~repro.table.partitioned.CinderellaTable.execute`
reads its branches from that snapshot's views
(:func:`~repro.query.executor.scan_view`).  So a record is decoded once
per change, not once per query.  Publishing reads heap pages but is not
a query: it charges no I/O.

One mechanism keeps publication proportional to the change:

* **Records carry their synopsis and their decode.**  A heap stores
  each record as a :class:`~repro.storage.record.StoredRecord`, which
  carries its entity's synopsis mask from the moment it is stored, and
  keeps its decoded ``(eid, attributes)`` and its rendered row per query
  shape once a reader made them.  Both read paths test a record's mask
  against the query's clause masks
  (:func:`~repro.query.pruning.surviving_records`) before anything
  else, so a record a query does not match is neither decoded nor
  rendered for it.  Splits, merges, moving updates and reorganizations
  move the object, so a moved record is never decoded or rendered again.
* **Pages share their views.**  A page caches an immutable
  :class:`~repro.storage.page.PageView` of its live records until it
  next changes.  A partition state (``_PartitionState``) is the tuple of
  its heap's page views: O(pages) to build, sharing every unchanged
  page with older states by identity.  Each page view memoises its
  rendered chunk per (shape, scope); a state joins its pages' chunks.
* **A publish visits only what changed.**  The catalog records the pids
  bumped, created or dropped since the manager last took its changes
  (:meth:`~repro.catalog.catalog.PartitionCatalog.take_changes`); a
  publish rebuilds those states and reuses the previous
  :class:`PartitionView` of every other pid.  A replaced catalog (a
  reorganization) rebuilds everything; another reader having taken the
  changes meanwhile makes the publish compare every partition's version.

Two caches keep repeated queries cheap: the chunk memos above, and
per-snapshot **response caches** that remember the fully serialized wire
fragment of a query's answer — within one snapshot's lifetime a repeated
query costs a dict lookup and a splice.  A scoped view of a snapshot is
its own snapshot object, so it has its own.

Retention is a fixed-depth ring: a :class:`SnapshotManager` holds the
most recent ``retain`` snapshots, the latest among them.  A reader keeps
an older version alive by holding a reference to it; nothing else pins
a snapshot.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_right
from collections import deque
from heapq import merge
from itertools import chain, islice
from operator import attrgetter
from typing import (
    Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence,
    TYPE_CHECKING,
)

from repro.obs import runtime as obs
from repro.query.executor import ExecutionResult, ExecutionStats, union_branches
from repro.query.pruning import clause_masks, prune, surviving_records
from repro.query.query import AttributeQuery
from repro.storage.page import PageView
from repro.storage.record import StoredRecord, deserialize_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.catalog import PartitionCatalog
    from repro.catalog.dictionary import AttributeDictionary
    from repro.table.partitioned import CinderellaTable

#: query identity — the same pair the result cache keys by
QuerySig = tuple[tuple[str, ...], str]

#: distinct query shapes remembered per record, page view, partition
#: state and snapshot; overflow clears the cache (simple and safe — it
#: only costs a rescan)
_CHUNK_CACHE_SIGS = 128
_RESPONSE_CACHE_SIGS = 256
#: scoped views remembered per snapshot, and eid-ordered memos per
#: partition state (a healthy placement asks a node for one scope, a
#: failover or a resync for a few); overflow clears
_SCOPED_VIEWS = 16


def query_sig(query: AttributeQuery) -> QuerySig:
    return (query.attributes, query.mode)


class ShardScope(NamedTuple):
    """The entities of a set of shards: ``eid % n_shards in shards``.

    The routing tier places entities by that rule, and with replication
    a node holds copies of more shards than it is asked to answer for:
    a scope names the ones it is — in a read's ``shard_filter`` and in
    the resync ops.  Hashable, so it keys the caches it narrows.
    """

    n_shards: int
    shards: frozenset[int]

    def select(self, eids: Iterable[int], values: Iterable[Any]) -> list[Any]:
        """Those of *values* whose entity id, at the same position of
        *eids*, is in scope."""
        n_shards, shards = self
        return [
            value for eid, value in zip(eids, values)
            if eid % n_shards in shards
        ]


class _PartitionState:
    """One partition's records as one publish saw them.

    ``pages`` is the views of the partition heap's pages
    (:meth:`~repro.storage.heap.HeapFile.page_views`): building a state
    costs O(pages), and a page that did not change since an older state
    saw it is the same view object in both.  The records are
    :class:`~repro.storage.record.StoredRecord` objects, which keep their
    decode and their rendered rows; so re-serving a rebuilt state
    decodes and renders only the records that changed, renders only the
    pages that changed, and joins the other pages' chunks.  A state is
    immutable, apart from its memos.
    """

    __slots__ = ("pages", "count", "dictionary", "chunks", "by_eid",
                 "_records", "_pairs", "__weakref__")

    def __init__(
        self, pages: tuple[PageView, ...], dictionary: "AttributeDictionary"
    ) -> None:
        self.pages = pages
        self.count = sum(len(page.records) for page in pages)
        self.dictionary = dictionary
        #: (sig, scope) -> (serialized row chunk, row count): the matched
        #: rows as comma-joined JSON objects, joined from the page chunks
        self.chunks: dict[
            tuple[QuerySig, Optional[ShardScope]], tuple[str, int]
        ] = {}
        #: scope -> (entity ids ascending, their records in that order)
        self.by_eid: dict[
            Optional[ShardScope], tuple[list[int], list[StoredRecord]]
        ] = {}
        self._records: Optional[tuple[StoredRecord, ...]] = None
        self._pairs: Optional[list[tuple[int, dict[str, Any]]]] = None

    def records(self) -> tuple[StoredRecord, ...]:
        """Every record, in heap-scan order."""
        records = self._records
        if records is None:
            records = self._records = tuple(
                chain.from_iterable(page.records for page in self.pages)
            )
        return records

    def pairs(self) -> list[tuple[int, dict[str, Any]]]:
        """Every record decoded, as ``(eid, attributes)``, in order."""
        pairs = self._pairs
        if pairs is None:
            dictionary = self.dictionary
            pairs = self._pairs = [
                stored.decoded or _decode(stored, dictionary)
                for stored in self.records()
            ]
        return pairs

    def in_eid_order(
        self, scope: Optional[ShardScope]
    ) -> tuple[list[int], list[StoredRecord]]:
        """The records in *scope* by ascending entity id, with the ids
        beside them (memoised per scope; nothing is decoded)."""
        entry = self.by_eid.get(scope)
        if entry is None:
            records = self.records()
            if scope is not None:
                records = scope.select(map(_eid_of, records), records)
            ordered = sorted(records, key=_eid_of)
            entry = ([stored.eid for stored in ordered], ordered)
            if len(self.by_eid) >= _SCOPED_VIEWS:
                self.by_eid.clear()
            self.by_eid[scope] = entry
        return entry

    def qualifying(self, clauses: Sequence[int]) -> list[dict[str, Any]]:
        """The attributes of the records whose entity synopsis meets
        every clause, in order.

        An entity is pruned by the mask its record carries, so only a
        qualifying record is decoded, in full and once: a later scan of
        any shape reuses it.
        """
        dictionary = self.dictionary
        return [
            (stored.decoded or _decode(stored, dictionary))[1]
            for stored in surviving_records(self.records(), clauses)
        ]

    def chunk(
        self, query: AttributeQuery, sig: QuerySig,
        scope: Optional[ShardScope],
    ) -> tuple[str, int]:
        """The matched rows in *scope*, serialized: ``(chunk, row_count)``,
        where *chunk* is the rows as comma-joined JSON objects (no
        enclosing brackets)."""
        key = (sig, scope)
        entry = self.chunks.get(key)
        if entry is None:
            clauses = clause_masks(query, self.dictionary)
            parts = []
            count = 0
            for page in self.pages:
                chunk, added = page.chunks.get(key) or _render(
                    page, query, sig, scope, clauses, self.dictionary
                )
                if added:
                    parts.append(chunk)
                    count += added
            entry = (",".join(parts), count)
            if len(self.chunks) >= _CHUNK_CACHE_SIGS:
                self.chunks.clear()
            self.chunks[key] = entry
        return entry


def _decode(
    stored: StoredRecord, dictionary: "AttributeDictionary"
) -> tuple[int, dict[str, Any]]:
    """Decode *stored* and keep the result on it."""
    pair = stored.decoded = deserialize_record(stored.data, dictionary)
    return pair


def _render(
    page: PageView, query: AttributeQuery, sig: QuerySig,
    scope: Optional[ShardScope], clauses: Sequence[int],
    dictionary: "AttributeDictionary",
) -> tuple[str, int]:
    """Project and serialize the records of *page* in *scope* whose mask
    meets every clause of the query (*clauses*), rendering each record
    at most once per shape; memoised on the page.  A record the query
    does not match is neither decoded nor rendered."""
    project = query.project
    dumps = json.dumps
    picked = []
    for stored in surviving_records(page.records, clauses):
        if scope is not None and stored.eid % scope.n_shards not in scope.shards:
            continue
        rows = stored.rows
        if rows is None:
            rows = stored.rows = {}
        row = rows.get(sig)
        if row is None:
            attributes = (stored.decoded or _decode(stored, dictionary))[1]
            row = dumps(project(attributes), separators=(",", ":"))
            if len(rows) >= _CHUNK_CACHE_SIGS:
                rows.clear()
            rows[sig] = row
        picked.append(row)
    entry = (",".join(picked), len(picked))
    if len(page.chunks) >= _CHUNK_CACHE_SIGS:
        page.chunks.clear()
    page.chunks[sig, scope] = entry
    return entry


#: the entity id of a stored record
_eid_of = attrgetter("eid")


class PartitionView:
    """One partition as one snapshot saw it: mask, version, record count
    — and the scope its rows are read through (``None``: all of them)."""

    __slots__ = ("pid", "mask", "version", "count", "_state", "scope")

    def __init__(
        self, pid: int, mask: int, version: int, state: _PartitionState,
        scope: Optional[ShardScope] = None,
    ) -> None:
        self.pid = pid
        self.mask = mask
        self.version = version
        self.count = state.count
        self._state = state
        self.scope = scope

    def chunk(self, query: AttributeQuery, sig: QuerySig) -> tuple[str, int]:
        return self._state.chunk(query, sig, self.scope)

    def scan(
        self,
        stats: ExecutionStats,
        out_rows: list,
        matches: Callable[[dict[str, Any]], bool],
        project: Callable[[dict[str, Any]], Any],
        clauses: Optional[Sequence[int]] = None,
    ) -> None:
        """:func:`~repro.query.executor.scan_heap` over the decoded
        entities in scope, so no pages or bytes are read: the one scan of
        :meth:`TableSnapshot.execute`, of SQL on a snapshot and of the
        embedded table's reads (:func:`~repro.query.executor.scan_view`).

        With *clauses* (the query's
        :func:`~repro.query.pruning.clause_masks`; the view must be
        unscoped), an entity whose synopsis misses a clause is counted as
        read and skipped before it is decoded — the pruning rule, per
        entity, on the mask its record carries (see
        :meth:`_PartitionState.qualifying`).  The rule is exact there, so
        *matches* is not probed: every survivor is a row.
        """
        if clauses is None:
            pairs = self._pairs()
            stats.entities_read += len(pairs)
            rows = filter(matches, [attributes for _eid, attributes in pairs])
        else:
            stats.entities_read += self.count
            rows = self._state.qualifying(clauses)
        before = len(out_rows)
        out_rows.extend(map(project, rows))
        stats.rows_returned += len(out_rows) - before

    def entities(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """The ``(eid, attributes)`` pairs in scope, in heap-scan order.

        The attribute dicts are the shared decoded objects — callers
        must not mutate them.
        """
        return iter(self._pairs())

    def in_eid_order(self) -> tuple[list[int], list[StoredRecord]]:
        """The records in scope by ascending entity id, with the ids
        beside them (see :meth:`_PartitionState.in_eid_order`)."""
        return self._state.in_eid_order(self.scope)

    def _pairs(self) -> list[tuple[int, dict[str, Any]]]:
        pairs = self._state.pairs()
        if self.scope is None:
            return pairs
        return self.scope.select((eid for eid, _ in pairs), pairs)


class TableSnapshot:
    """An immutable view of the table at one version-clock value — all
    of it, or (:meth:`scoped`) the entities of one :class:`ShardScope`."""

    def __init__(
        self,
        snapshot_id: int,
        version_clock: int,
        views: tuple[PartitionView, ...],
        dictionary: "AttributeDictionary",
        created_monotonic: float,
    ) -> None:
        self.snapshot_id = snapshot_id
        self.version_clock = version_clock
        self.views = views  # ascending pid — plan order of the executor
        self.dictionary = dictionary
        self.created_monotonic = created_monotonic
        #: sig -> (positions in ``views`` of the survivors, pruned count);
        #: the publisher hands it on while no partition's pid or mask moves
        self._plan_cache: dict[QuerySig, tuple[tuple[int, ...], int]] = {}
        #: sig -> (wire fragment, row count) for repeat queries
        self._response_cache: dict[QuerySig, tuple[bytes, int]] = {}
        #: scope -> this version read through it (see :meth:`scoped`)
        self._scoped: dict[ShardScope, "TableSnapshot"] = {}
        #: pid -> view, built on the first :meth:`view_of`
        self._by_pid: Optional[dict[int, PartitionView]] = None

    def scoped(self, scope: Optional[ShardScope]) -> "TableSnapshot":
        """This version restricted to the entities in *scope*.

        Every read method of the result answers for the scope.  It
        shares this snapshot's partition states — the decoded records,
        and the chunk caches, whose keys carry the scope — and its plan
        cache (pruning, like the partition metadata, is the whole
        table's); only the response cache is its own.  Memoised per
        scope; ``scoped(None)`` is the snapshot itself.
        """
        if scope is None:
            return self
        view = self._scoped.get(scope)
        if view is None:
            if len(self._scoped) >= _SCOPED_VIEWS:
                self._scoped.clear()
            view = self._scoped[scope] = TableSnapshot(
                self.snapshot_id,
                self.version_clock,
                tuple(
                    PartitionView(v.pid, v.mask, v.version, v._state, scope)
                    for v in self.views
                ),
                self.dictionary,
                self.created_monotonic,
            )
            view._plan_cache = self._plan_cache
        return view

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def partition_count(self) -> int:
        return len(self.views)

    @property
    def entity_count(self) -> int:
        return sum(view.count for view in self.views)

    def view_of(self, pid: int) -> PartitionView:
        """The view of partition *pid* (``KeyError``: not in this version)."""
        by_pid = self._by_pid
        if by_pid is None:
            by_pid = self._by_pid = {view.pid: view for view in self.views}
        return by_pid[pid]

    def entities(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Every ``(eid, attributes)`` pair (ascending pid, heap order)."""
        for view in self.views:
            yield from view.entities()

    def entity_ids(self) -> list[int]:
        """Every entity id, ascending: the views' eid-ordered memos
        merged, nothing decoded."""
        return list(merge(*(view.in_eid_order()[0] for view in self.views)))

    def entity_page(
        self, after_eid: int, limit: int
    ) -> tuple[list[tuple[int, dict[str, Any]]], bool, int]:
        """The first *limit* entities with an id above *after_eid*, as
        ascending ``(eid, attributes)`` pairs; whether no entity follows
        them; and the number of entities.

        Each view's eid-ordered memo is bisected at *after_eid* and the
        views are merged lazily, so a page touches O(limit + views)
        records and decodes only the ones it returns.  The attribute
        dicts are the shared decoded objects — callers must not mutate
        them.
        """
        runs = []
        count = 0
        for view in self.views:
            eids, records = view.in_eid_order()
            count += len(eids)
            start = bisect_right(eids, after_eid)
            if start < len(eids):
                runs.append(map(records.__getitem__, range(start, len(eids))))
        merged = merge(*runs, key=_eid_of)
        dictionary = self.dictionary
        page = [
            stored.decoded or _decode(stored, dictionary)
            for stored in islice(merged, limit)
        ]
        return page, next(merged, None) is None, count

    # ------------------------------------------------------------------
    # planning (the one rule of repro.query.pruning over the views)
    # ------------------------------------------------------------------
    def _branches(
        self, query: AttributeQuery, sig: QuerySig
    ) -> tuple[tuple[PartitionView, ...], int]:
        views = self.views
        plan = self._plan_cache.get(sig)
        if plan is None:
            with obs.span("query.index_prune", partitions=len(views)) as span:
                positions, pruned = prune(
                    ((i, view.mask) for i, view in enumerate(views)),
                    clause_masks(query, self.dictionary),
                )
                plan = (tuple(positions), len(pruned))
                span.set("pruned", plan[1])
            if len(self._plan_cache) >= _RESPONSE_CACHE_SIGS:
                self._plan_cache.clear()
            self._plan_cache[sig] = plan
        positions, pruned = plan
        return tuple(views[i] for i in positions), pruned

    def surviving_pids(self, query: AttributeQuery) -> tuple[int, ...]:
        """Partition ids the query would scan (the pruning survivors).

        The workload trace feed uses this on the serve path; it shares
        the per-sig plan cache with :meth:`serve_query`, so a repeated
        shape costs one dict lookup.
        """
        branches, _pruned = self._branches(query, (query.attributes, query.mode))
        return tuple(view.pid for view in branches)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve_query(self, query: AttributeQuery) -> tuple[bytes, int, bool]:
        """Answer one query as a pre-serialized wire fragment.

        Returns ``(fragment, row_count, from_cache)``.  The fragment is
        everything of the response line after the request id — the
        server splices ``{"id":N`` in front — so a repeated query costs
        no JSON serialization at all.  The first serve of a query shape
        reports its scan in the stats object; cache hits report
        ``cache_hits`` instead, mirroring the result cache's accounting.
        """
        sig = (query.attributes, query.mode)
        cached = self._response_cache.get(sig)
        if cached is not None:
            return cached[0], cached[1], True
        branches, pruned = self._branches(query, sig)
        parts: list[str] = []
        row_count = 0
        with obs.span("query.snapshot_scan", branches=len(branches)):
            for view in branches:
                chunk, count = view.chunk(query, sig)
                if chunk:
                    parts.append(chunk)
                row_count += count
        rows_json = f"[{','.join(parts)}]"
        total = len(self.views)
        scanned = len(branches)
        # rows last, after a header with no user data in it: a router
        # forwards the array as these bytes (protocol.decode_response)
        first = (
            ',"ok":true,"status":"ok","row_count":%d,'
            '"stats":{"partitions_total":%d,"partitions_scanned":%d,'
            '"partitions_pruned":%d,"cache_hits":0,"cache_misses":%d},'
            '"rows":%s}\n'
            % (row_count, total, scanned, pruned, scanned, rows_json)
        ).encode()
        repeat = (
            ',"ok":true,"status":"ok","row_count":%d,'
            '"stats":{"partitions_total":%d,"partitions_scanned":0,'
            '"partitions_pruned":%d,"cache_hits":%d,"cache_misses":0},'
            '"rows":%s}\n'
            % (row_count, total, pruned, scanned, rows_json)
        ).encode()
        if len(self._response_cache) >= _RESPONSE_CACHE_SIGS:
            self._response_cache.clear()
        self._response_cache[sig] = (repeat, row_count)
        return first, row_count, False

    def execute(self, query: AttributeQuery) -> ExecutionResult:
        """Execute with the executor's result/accounting types.

        Row order is identical to
        :func:`repro.query.executor.execute_union_all` over the same
        state (views ascend by pid, records in heap-scan order), which
        is what the differential oracle compares against — this is the
        reference :meth:`serve_query` is tested against, not a serving
        path: it reads decoded records directly, touches neither cache
        and charges no I/O.  The embedded table serves from the same
        views through the executor's union-all loop instead, with its
        result cache and heap-equivalent accounting
        (:meth:`~repro.table.partitioned.CinderellaTable.execute`).
        Rows are fresh dicts — callers may mutate them.
        """
        sig = (query.attributes, query.mode)
        branches, pruned = self._branches(query, sig)
        stats = ExecutionStats(
            partitions_total=len(self.views),
            partitions_scanned=len(branches),
            partitions_pruned=pruned,
            union_branches=union_branches(len(self.views), len(branches)),
        )
        rows: list[dict[str, Any]] = []
        with obs.span("query.snapshot_scan", branches=len(branches)):
            for view in branches:
                view.scan(stats, rows, query.matches, query.project)
        return ExecutionResult(rows=rows, stats=stats)


class SnapshotManager:
    """Publishes snapshots and holds the last ``retain`` of them;
    thread-safe on both sides.

    The writer side (``publish``) runs on the batcher's worker thread;
    the reader side (``latest``) runs on the event loop.  One plain lock
    covers publication; snapshots themselves are immutable after
    publication, so readers never need it once they hold one.

    The ring decides how long the manager itself holds a snapshot, not
    what a reader sees: a reader keeps the snapshot it holds.  Its two
    depths differ on purpose.  A serving node keeps 8 (the default) as a
    page-fault shield: in process, 600 rounds of update + publish + 30
    serves on 8,000 entities (B = 500) took 150.8k–160.7k minor page
    faults at ``retain=1`` against 13.6k at ``retain=8``, and a prototype
    that gave the node the table's one-deep manager lost ``serve-read``
    ``ops_per_s`` in 5 of 6 pairs (9,285 → 7,836, for one) for 2–3 MB
    less peak RSS.  The
    embedded table keeps 1: an 8-deep ring there lost ``embedded-churn``
    ``ops_per_s`` in 3 of 3 pairs (7,052 → 6,997, 6,156 → 5,979,
    6,785 → 6,161).
    """

    def __init__(self, retain: int = 8) -> None:
        if retain < 1:
            raise ValueError(f"retain must be at least 1, got {retain}")
        self._lock = threading.Lock()
        #: pid -> the latest snapshot's view, in ascending pid order
        self._views: dict[int, PartitionView] = {}
        #: the catalog those views were built from, and the count of
        #: times its changes were taken when this manager last took them
        self._catalog: Optional["PartitionCatalog"] = None
        self._taken = 0
        #: the last ``retain`` snapshots, held only to keep them alive
        self._retained: deque[TableSnapshot] = deque(maxlen=retain)
        self._latest: Optional[TableSnapshot] = None
        self._next_snapshot_id = 0
        #: monotonic counter, mirrored into ServerCounters by the server
        self.published = 0

    @property
    def latest(self) -> Optional[TableSnapshot]:
        return self._latest

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    def publish(self, table: "CinderellaTable") -> TableSnapshot:
        """Snapshot the table's current committed state.

        Must be called from the single writer (batch apply, maintenance,
        sync delta) *after* its transaction committed — the snapshot is
        what readers will see, so publishing mid-mutation would leak a
        torn state.
        """
        with self._lock:
            return self._publish_locked(table)

    def _publish_locked(self, table: "CinderellaTable") -> TableSnapshot:
        with obs.span("snapshot.publish") as span:
            snapshot = self._build_locked(table, span)
        self._next_snapshot_id += 1
        self._retained.append(snapshot)
        self._latest = snapshot
        self.published += 1
        return snapshot

    def _touched(self, catalog: "PartitionCatalog") -> Iterable[int]:
        """The pids whose view may differ from the catalog's partition:
        the changes taken from the catalog, or — when another reader
        took some of them, or the catalog is not the one the views came
        from — every pid whose version moved or that was dropped."""
        changed, self._taken = catalog.take_changes(self._taken)
        if catalog is not self._catalog:
            self._catalog = catalog
            self._views = {}
        elif changed is not None:
            return changed
        views = self._views
        return [
            pid for pid in catalog.partition_ids()
            if pid not in views or views[pid].version != catalog.version_of(pid)
        ] + [pid for pid in views if pid not in catalog]

    def _build_locked(self, table: "CinderellaTable", span: Any) -> TableSnapshot:
        catalog = table.catalog
        dictionary = table.dictionary
        touched = self._touched(catalog)
        views = self._views
        # whether any partition's pid or mask moved: the views of the
        # previous snapshot are then laid out differently
        relaid = added = False
        rebuilt = pages_built = 0
        for pid in touched:
            old = views.get(pid)
            if pid not in catalog:
                if old is not None:
                    del views[pid]
                    relaid = True
                continue
            partition = catalog.get(pid)
            state = _PartitionState(table.heap_of(pid).page_views(), dictionary)
            views[pid] = PartitionView(
                pid, partition.mask, catalog.version_of(pid), state
            )
            rebuilt += 1
            if old is None:
                relaid = added = True
            else:
                relaid = relaid or old.mask != partition.mask
            if span.is_recording:
                kept = set(map(id, old._state.pages)) if old is not None else ()
                pages_built += sum(id(page) not in kept for page in state.pages)
        if added:
            views = self._views = dict(sorted(views.items()))
        if span.is_recording:
            span.set("touched", len(touched))
            span.set("rebuilt", rebuilt)
            span.set("pages_built", pages_built)
        snapshot = TableSnapshot(
            self._next_snapshot_id,
            catalog.version_clock,
            tuple(views.values()),
            dictionary,
            time.monotonic(),
        )
        # a plan is positions into the views, chosen by their masks:
        # equal layouts share one plan cache
        previous = self._latest
        if (
            not relaid
            and previous is not None
            and previous.dictionary is dictionary
        ):
            snapshot._plan_cache = previous._plan_cache
        return snapshot
