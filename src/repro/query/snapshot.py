"""MVCC-style immutable table snapshots pinned to the version clock.

A :class:`TableSnapshot` is an immutable view of one
:class:`~repro.table.partitioned.CinderellaTable` at one value of the
catalog's monotonic version clock (the same clock the embedded table's
query result cache keys by).  Writers publish a fresh snapshot after
every committed batch; readers grab the latest snapshot and serve from
it without any locking at all — a query can never block on a writer,
and never observes a half-applied batch.  This is a serving node's
whole read path: latest snapshot → per-snapshot response cache →
per-partition-state chunk cache → decoded records — for the whole table
or, through :meth:`TableSnapshot.scoped`, for the shards of a
:class:`ShardScope` (the routing tier's reads): the same path, with the
scope as one more component of the cache keys.

It is the embedded table's read path too.  A
:class:`~repro.table.partitioned.CinderellaTable` owns one
``SnapshotManager(retain=1)`` and publishes lazily: the first read
after writes (:meth:`~repro.table.partitioned.CinderellaTable.snapshot`)
brings it current, and :meth:`~repro.table.partitioned.CinderellaTable.execute`
reads its branches from that snapshot's views
(:func:`~repro.query.executor.scan_view`).  So a record is decoded once
per change, not once per query.  Publishing reads heap pages but is not
a query: it charges no I/O.

Shared partition states keep publication cheap enough to run once per
group commit, and two caches keep repeated queries cheap:

* ``_PartitionState`` holds one partition's raw records in heap-scan
  order, decoded lazily on first read, and each record's rendered row
  per query shape, rendered on first serve.  States are *shared across
  snapshots*: when a publish finds a partition whose new contents are a
  strict append of the old (the common case — inserts into an existing
  partition), it extends the state in place and every older snapshot
  keeps addressing its shorter prefix.  Any other change (delete,
  in-place update, split/merge move) builds a fresh state object, so
  snapshots taken before the change keep the old one alive untouched.
  The fresh state is built page by page.  A heap page that has not
  changed since the predecessor of the same heap observed it
  (``HeapFile.page_clocks``) contributes that predecessor's run of
  records — raw, decoded and rendered — as list slices; only the pages
  that changed are read (``HeapFile.scan_page``).  The records read
  borrow through :class:`_Donors` from the runs the publish replaced:
  the old runs of the changed pages, and the whole states of dropped
  partitions and of partitions now on another heap.  A record borrows
  when it is the same ``bytes`` object (split and merge moves carry it
  from heap to heap), so a rebuild reads the pages that changed and
  re-serving it decodes and renders only the records that changed.  A
  successor reads its predecessors without editing them and keeps no
  reference to them, so borrowing never chains.
* per-state **chunk caches** remember the serialized rows a query
  matched, within one scope, up to a prefix length, so a fresh
  snapshot's first serve of a known shape over a growing partition
  matches and serializes only the appended suffix.
* per-snapshot **response caches** remember the fully serialized wire
  fragment of a query's answer; within one snapshot's lifetime a
  repeated query costs a dict lookup and a splice.  A scoped view of a
  snapshot is its own snapshot object, so it has its own.

Retention is bounded: a :class:`SnapshotManager` keeps the most recent
``retain`` snapshots and garbage-collects older ones — but never the
latest and never one a caller has pinned.  Pins are how longer-lived
readers (tests, cursors, time travel) keep a version alive across
publishes; the isolation battery's GC invariant pins exactly this.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from collections import OrderedDict
from functools import partial
from itertools import compress, repeat
from operator import is_not, itemgetter
from typing import (
    Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence,
    TYPE_CHECKING,
)

from repro.obs import runtime as obs
from repro.query.executor import ExecutionResult, ExecutionStats
from repro.query.pruning import clause_masks, prune
from repro.query.query import AttributeQuery
from repro.storage.record import deserialize_record, record_entity_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.dictionary import AttributeDictionary
    from repro.catalog.partition import Partition
    from repro.storage.heap import HeapFile
    from repro.table.partitioned import CinderellaTable

#: query identity — the same pair the result cache keys by
QuerySig = tuple[tuple[str, ...], str]

#: distinct query shapes remembered per partition state / per snapshot;
#: overflow clears the cache (simple and safe — it only costs a rescan)
_CHUNK_CACHE_SIGS = 128
_RESPONSE_CACHE_SIGS = 256
#: scoped views remembered per snapshot (a healthy placement asks a node
#: for one scope, a failover for a few); overflow clears
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
    """One partition's records, decoded lazily, shared across snapshots.

    ``raw`` is the heap-scan order ``(rid, record_bytes)`` list; it may
    be *extended* in place by a later publish (append-only growth), so
    every reader must address it through a snapshot's fixed ``count``
    prefix and never through ``len(raw)``.

    ``decoded`` and the per-shape ``rows`` are per-record and in the
    same order.  A fresh state is the *successor* of the states its
    publish replaced (see :meth:`successor`): every heap page unchanged
    since its predecessor of the same heap saw it is that predecessor's
    run of records, sliced with its decoded records and rendered rows;
    every other page is read and borrows from :class:`_Donors`.  So a
    rebuild reads the pages that changed, and re-serving it decodes and
    renders only the records that changed.  A successor only reads its
    predecessors and keeps no reference to them.
    """

    __slots__ = ("pid", "version", "mask", "raw", "decoded", "ready", "rows",
                 "chunk_cache", "dictionary", "heap_id", "seen_clock",
                 "__weakref__")

    def __init__(
        self, pid: int, version: int, raw: list,
        decoded: list, rows: dict, dictionary: "AttributeDictionary",
    ) -> None:
        self.pid = pid
        #: version of the newest publish this state is current for
        self.version = version
        #: the partition's mask at that version (set by the publisher)
        self.mask = -1
        self.raw = raw
        #: which physical heap (``HeapFile.file_id``) and how much of its
        #: mutation history this state has observed; publish uses the
        #: pair to detect append-only growth in O(1) via the heap's
        #: structural clock, and a rebuild to keep the pages whose
        #: ``page_clocks`` entry is at most ``seen_clock``
        self.heap_id = -1
        self.seen_clock = -1
        #: ``(eid, attributes)`` per record of ``raw``, ``None`` until
        #: decoded; the publisher extends it together with ``raw``.
        #: ``rows``: sig -> per record its projected row as a JSON
        #: object, ``""`` when it does not match, ``None`` until rendered
        self.decoded = decoded
        self.rows = rows
        #: leading entries of ``decoded`` known to be filled in
        self.ready = 0
        #: (sig, scope) -> (prefix length, row count, serialized row
        #: chunk) — the matched rows pre-rendered as comma-joined JSON
        #: objects, so a fresh snapshot's first serve of a known shape
        #: only serializes rows appended since the previous snapshot
        self.chunk_cache: dict[
            tuple[QuerySig, Optional[ShardScope]], tuple[int, int, str]
        ] = {}
        self.dictionary = dictionary

    @classmethod
    def successor(
        cls, pid: int, version: int, heap: "HeapFile",
        dictionary: "AttributeDictionary",
        kept: list[tuple[int, int, int, int]],
        old: Optional["_PartitionState"], donors: Optional["_Donors"],
    ) -> tuple["_PartitionState", int]:
        """The state of *heap*, and how many of its pages it read.

        *kept* is the page runs of :func:`_page_runs` that *old*, the
        predecessor of the same heap, still holds (none when there is
        no such predecessor).  A kept run is sliced out of *old*; the
        pages between are read and borrow through *donors*.
        """
        raw: list = []
        decoded: list = []
        rows: dict[QuerySig, list[Optional[str]]] = {}
        pages_read = 0
        page = 0
        end_of_heap = (heap.page_count, heap.page_count, 0, 0)
        for first, end, lo, hi in [*kept, end_of_heap]:
            if page < first:
                pairs = []
                for number in range(page, first):
                    pairs += heap.scan_page(number)
                pages_read += first - page
                raw += pairs
                if donors is None:
                    _append_run(decoded, rows, [None] * len(pairs), {})
                else:
                    _append_run(decoded, rows, *donors.take(pairs))
            if hi > lo:
                assert old is not None
                raw += old.raw[lo:hi]
                _append_run(decoded, rows, *old.run(lo, hi))
            page = end
        state = cls(pid, version, raw, decoded, rows, dictionary)
        state.heap_id = heap.file_id
        state.seen_clock = heap.mutation_clock
        return state, pages_read

    def run(self, lo: int, hi: int) -> tuple[list, dict[QuerySig, list]]:
        """The decoded entries and, per shape, the rendered rows of the
        records ``[lo, hi)`` (a row list may stop short: not rendered)."""
        # a copy: a reader may add a shape to the dict meanwhile
        shapes = self.rows.copy()
        return (
            self.decoded[lo:hi],
            {sig: rows[lo:hi] for sig, rows in shapes.items()},
        )

    def ensure_decoded(self, n: int) -> None:
        """Decode records until the first *n* are available."""
        i = self.ready
        if i >= n:
            return
        decoded = self.decoded
        raw = self.raw
        dictionary = self.dictionary
        try:
            while True:
                i = decoded.index(None, i, n)
                decoded[i] = deserialize_record(raw[i][1], dictionary)
                i += 1
        except ValueError:  # no record in [i, n) is left undecoded
            pass
        if n > self.ready:
            self.ready = n

    def qualifying(
        self, n: int, entry: "Partition", clauses: Sequence[int]
    ) -> list[dict[str, Any]]:
        """The attributes of those of the first *n* records whose entity
        synopsis in *entry* meets every clause, in order.

        An entity is pruned by its id — from its decoded entry, or read
        off the record undecoded — so only a qualifying record is
        decoded, in full and once: a later scan of any shape reuses it.
        """
        decoded = self.decoded
        raw = self.raw
        eids = [
            pair[0] if pair is not None else record_entity_id(raw[i][1])
            for i, pair in enumerate(decoded[:n])
        ]
        positions, _pruned = prune(
            zip(range(n), entry.masks_of(eids)), clauses
        )
        dictionary = self.dictionary
        attributes = []
        for i in positions:
            pair = decoded[i]
            if pair is None:
                pair = decoded[i] = deserialize_record(raw[i][1], dictionary)
            attributes.append(pair[1])
        return attributes

    def _render(
        self, query: AttributeQuery, sig: QuerySig,
        scope: Optional[ShardScope], start: int, n: int,
    ) -> tuple[str, int]:
        """Match, project and serialize the records ``[start, n)`` that
        are in *scope*, rendering each record at most once per shape."""
        self.ensure_decoded(n)
        rows = self.rows.get(sig)
        if rows is None:
            if len(self.rows) >= _CHUNK_CACHE_SIGS:
                self.rows.clear()
            rows = self.rows[sig] = []
        if len(rows) < n:
            rows.extend([None] * (n - len(rows)))
        decoded = self.decoded
        matches = query.matches
        project = query.project
        dumps = json.dumps
        if scope is None:
            i = start
            try:
                while True:
                    i = rows.index(None, i, n)
                    attributes = decoded[i][1]
                    rows[i] = (
                        dumps(project(attributes), separators=(",", ":"))
                        if matches(attributes) else ""
                    )
                    i += 1
            except ValueError:  # every row in [start, n) is rendered
                pass
            picked = list(filter(None, rows[start:n]))
            return ",".join(picked), len(picked)
        picked = []
        for i in range(start, n):
            eid, attributes = decoded[i]
            if eid % scope.n_shards not in scope.shards:
                continue
            row = rows[i]
            if row is None:
                row = rows[i] = (
                    dumps(project(attributes), separators=(",", ":"))
                    if matches(attributes) else ""
                )
            if row:
                picked.append(row)
        return ",".join(picked), len(picked)

    def matched_chunk(
        self, query: AttributeQuery, sig: QuerySig, n: int,
        scope: Optional[ShardScope] = None,
    ) -> tuple[str, int]:
        """The matched rows of the first *n* records in *scope*, serialized.

        Returns ``(chunk, row_count)`` where *chunk* is the rows as
        comma-joined JSON objects (no enclosing brackets).  A cached
        prefix shorter than *n* is extended monotonically (the
        append-only fast path: only the appended records are matched
        and serialized); a request for a prefix *shorter* than the
        cached one — an older pinned snapshot — recomputes without
        storing, so the cache always tracks the newest snapshot.
        """
        key = (sig, scope)
        entry = self.chunk_cache.get(key)
        if entry is None:
            if len(self.chunk_cache) >= _CHUNK_CACHE_SIGS:
                self.chunk_cache.clear()
            cached_n, count, chunk = 0, 0, ""
        else:
            cached_n, count, chunk = entry
            if cached_n == n:
                return chunk, count
            if cached_n > n:  # shorter prefix: serve without storing
                return self._render(query, sig, scope, 0, n)
        tail, added = self._render(query, sig, scope, cached_n, n)
        if added:
            chunk = f"{chunk},{tail}" if chunk else tail
            count += added
        self.chunk_cache[key] = (n, count, chunk)
        return chunk, count


class _Donors:
    """What the runs one publish replaces hold, by record identity.

    The runs are the records a publish's rebuilt states do not keep by
    page: the old runs of their changed pages, and the whole states of
    partitions dropped or now on another heap.  A record a successor
    shares with one of them is the same ``bytes`` object — a split or
    merge moves that object from heap to heap, an in-place update keeps
    the page's other records — so its decoded ``(eid, attributes)`` and
    its rendered rows carry over exactly.  Built once per publish from
    the predecessors' lists (read, never edited) and dropped with it,
    so borrowing never chains: a successor holds the borrowed entries,
    not the states they came from.
    """

    __slots__ = ("index", "decoded", "rows")

    def __init__(self, runs: list[tuple[_PartitionState, int, int]]) -> None:
        #: id of a decoded record's bytes -> its position in the lists
        self.index: dict[int, int] = {}
        self.decoded: list[Optional[tuple[int, dict[str, Any]]]] = []
        self.rows: dict[QuerySig, list[Optional[str]]] = {}
        for state, lo, hi in runs:
            decoded, rows = state.run(lo, hi)
            if decoded.count(None) == len(decoded):
                continue  # never read: nothing to lend
            base = len(self.decoded)
            self.index.update(compress(
                zip(
                    map(id, map(_record_of, state.raw[lo:hi])),
                    range(base, base + len(decoded)),
                ),
                map(_is_not_none, decoded),
            ))
            _append_run(self.decoded, self.rows, decoded, rows)

    def take(self, raw: list) -> tuple[
        list[Optional[tuple[int, dict[str, Any]]]],
        dict[QuerySig, list[Optional[str]]],
    ]:
        """The decoded entries (``None``: not held) and, per shape, the
        rendered rows of *raw*'s records."""
        index = self.index
        if not index:
            return [None] * len(raw), {}
        positions = list(
            map(index.get, map(id, map(_record_of, raw)), repeat(-1))
        )
        if positions.count(-1) == len(positions):
            return [None] * len(raw), {}
        decoded = self.decoded
        return (
            [decoded[g] if g >= 0 else None for g in positions],
            {
                sig: [flat[g] if g >= 0 else None for g in positions]
                for sig, flat in self.rows.items()
            },
        )


def _append_run(
    decoded: list, rows: dict[QuerySig, list], run_decoded: list,
    run_rows: dict[QuerySig, list],
) -> None:
    """Append one run's decoded entries and rendered rows to *decoded*
    and *rows*, padding every shape's list with ``None`` to full length."""
    base = len(decoded)
    decoded += run_decoded
    for sig, part in run_rows.items():
        flat = rows.get(sig)
        if flat is None:
            flat = rows[sig] = [None] * base
        flat += part
    for flat in rows.values():
        flat += [None] * (len(decoded) - len(flat))


def _page_of(pair: tuple[Any, bytes]) -> int:
    return pair[0].page


#: the record of a ``(rid, record)`` pair
_record_of = itemgetter(1)
_is_not_none = partial(is_not, None)


def _page_runs(heap: "HeapFile", old: _PartitionState) -> tuple[
    list[tuple[int, int, int, int]], list[tuple[_PartitionState, int, int]]
]:
    """Which records of *old* its successor on *heap* keeps, which not.

    *old* observed *heap* at ``old.seen_clock``: a page whose clock is
    not newer still holds exactly *old*'s records of that page.  Each
    maximal run of such pages is kept as ``(first_page, end_page, lo,
    hi)``, with ``old.raw[lo:hi]`` its records (``raw`` is in page
    order); the records between are the runs ``(old, lo, hi)`` the
    successor re-reads, lent to the publish's donors.
    """
    seen = old.seen_clock
    raw = old.raw
    kept = []
    lent = []
    position = 0  # end of the last kept run in raw
    first = -1  # first page of the open kept run
    for number, clock in enumerate([*heap.page_clocks, seen + 1]):
        if clock <= seen:
            if first < 0:
                first = number
        elif first >= 0:
            lo = bisect_left(raw, first, position, key=_page_of)
            hi = bisect_left(raw, number, lo, key=_page_of)
            kept.append((first, number, lo, hi))
            if lo > position:
                lent.append((old, position, lo))
            position = hi
            first = -1
    if position < len(raw):
        lent.append((old, position, len(raw)))
    return kept, lent


class PartitionView:
    """One partition as one snapshot saw it: mask, version, record count
    — and the scope its rows are read through (``None``: all of them)."""

    __slots__ = ("pid", "mask", "version", "count", "_state", "scope")

    def __init__(
        self, pid: int, mask: int, version: int, count: int,
        state: _PartitionState, scope: Optional[ShardScope] = None,
    ) -> None:
        self.pid = pid
        self.mask = mask
        self.version = version
        self.count = count
        self._state = state
        self.scope = scope

    def chunk(self, query: AttributeQuery, sig: QuerySig) -> tuple[str, int]:
        return self._state.matched_chunk(query, sig, self.count, self.scope)

    def scan(
        self,
        stats: ExecutionStats,
        out_rows: list,
        matches: Callable[[dict[str, Any]], bool],
        project: Callable[[dict[str, Any]], Any],
        entry: Optional["Partition"] = None,
        clauses: Sequence[int] = (),
    ) -> None:
        """:func:`~repro.query.executor.scan_heap` over the decoded
        entities in scope, so no pages or bytes are read: the one scan of
        :meth:`TableSnapshot.execute`, of SQL on a snapshot and of the
        embedded table's reads (:func:`~repro.query.executor.scan_view`).

        With *entry* (the partition's catalog entry, current with this
        view, which must be unscoped) and *clauses*
        (:func:`~repro.query.pruning.clause_masks`), an entity whose
        synopsis misses a clause is counted as read and skipped before
        it is decoded or *matches* probes it — the pruning rule, per
        entity, as :func:`~repro.query.executor.scan_heap` applies it
        (see :meth:`_PartitionState.qualifying`).
        """
        if entry is None:
            pairs = self._pairs()
            stats.entities_read += len(pairs)
            attributes = [attributes for _eid, attributes in pairs]
        else:
            stats.entities_read += self.count
            attributes = self._state.qualifying(self.count, entry, clauses)
        before = len(out_rows)
        out_rows.extend(map(project, filter(matches, attributes)))
        stats.rows_returned += len(out_rows) - before

    def entities(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """The ``(eid, attributes)`` pairs in scope, in heap-scan order.

        The attribute dicts are the shared decoded objects — callers
        must not mutate them.
        """
        return iter(self._pairs())

    def _pairs(self) -> list[tuple[int, dict[str, Any]]]:
        state = self._state
        state.ensure_decoded(self.count)
        pairs = state.decoded[: self.count]
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
        #: pin count — the manager's GC skips pinned snapshots
        self.pins = 0
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
                    PartitionView(v.pid, v.mask, v.version, v.count, v._state, scope)
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
        first = (
            ',"ok":true,"status":"ok","rows":%s,"row_count":%d,'
            '"stats":{"partitions_total":%d,"partitions_scanned":%d,'
            '"partitions_pruned":%d,"cache_hits":0,"cache_misses":%d}}\n'
            % (rows_json, row_count, total, scanned, pruned, scanned)
        ).encode()
        repeat = (
            ',"ok":true,"status":"ok","rows":%s,"row_count":%d,'
            '"stats":{"partitions_total":%d,"partitions_scanned":0,'
            '"partitions_pruned":%d,"cache_hits":%d,"cache_misses":0}}\n'
            % (rows_json, row_count, total, pruned, scanned)
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
            union_branches=len(branches),
        )
        rows: list[dict[str, Any]] = []
        with obs.span("query.snapshot_scan", branches=len(branches)):
            for view in branches:
                view.scan(stats, rows, query.matches, query.project)
        return ExecutionResult(rows=rows, stats=stats)


class SnapshotManager:
    """Publishes and retains snapshots; thread-safe on both sides.

    The writer side (``publish``) runs on the batcher's worker thread;
    the reader side (``latest``/``pin``/``release``) runs on the event
    loop and in tests.  One plain lock covers the retention structures;
    snapshots themselves are immutable after publication, so readers
    never need it once they hold one.
    """

    def __init__(self, retain: int = 8) -> None:
        if retain < 1:
            raise ValueError(f"retain must be at least 1, got {retain}")
        self.retain = retain
        self._lock = threading.Lock()
        self._states: dict[int, _PartitionState] = {}
        self._retained: "OrderedDict[int, TableSnapshot]" = OrderedDict()
        self._latest: Optional[TableSnapshot] = None
        self._next_snapshot_id = 0
        #: monotonic counters, mirrored into ServerCounters by the server
        self.published = 0
        self.retired = 0
        self.last_publish_monotonic = 0.0

    @property
    def latest(self) -> Optional[TableSnapshot]:
        return self._latest

    def retained_count(self) -> int:
        return len(self._retained)

    def retained_ids(self) -> list[int]:
        return list(self._retained)

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
        self._retained[snapshot.snapshot_id] = snapshot
        self._latest = snapshot
        self.published += 1
        self.last_publish_monotonic = snapshot.created_monotonic
        self._gc_locked()
        return snapshot

    def _build_locked(self, table: "CinderellaTable", span: Any) -> TableSnapshot:
        catalog = table.catalog
        dictionary = table.dictionary
        states = self._states
        current = []  # (partition, version) in catalog order
        rebuilt = []  # (partition, version, heap): a fresh successor state
        appended = 0
        # whether any partition's pid or mask moved: the views of the
        # previous snapshot are then laid out differently (a mask only
        # changes with the partition's version)
        relaid = False
        for partition in catalog:
            pid = partition.pid
            version = catalog.version_of(pid)
            current.append((partition, version))
            state = states.get(pid)
            if state is None or state.version != version:
                if state is None or state.mask != partition.mask:
                    relaid = True
                heap = table.heap_of(pid)
                if (
                    state is not None
                    and state.heap_id == heap.file_id
                    and heap.structural_clock <= state.seen_clock
                ):
                    # append-only growth, detected in O(1) from the
                    # heap's clocks: extend in place with just the new
                    # tail records; older snapshots keep addressing
                    # their shorter prefix
                    if heap.mutation_clock != state.seen_clock:
                        tail = state.raw[-1][0] if state.raw else None
                        state.raw.extend(heap.scan_suffix(tail))
                        state.decoded.extend(
                            [None] * (len(state.raw) - len(state.decoded))
                        )
                        state.seen_clock = heap.mutation_clock
                        appended += 1
                    state.version = version
                    state.mask = partition.mask
                else:
                    # anything else (delete, in-place update, move):
                    # a fresh state, built below once every run it
                    # replaces is known — old snapshots keep the old one
                    rebuilt.append((partition, version, heap))
        live_pids = {partition.pid for partition, _version in current}
        relaid = relaid or len(live_pids) != len(states)
        # what each rebuild keeps by page from its predecessor of the
        # same heap, and what the publish replaces: the rest of those
        # predecessors, the states now on another heap, the dropped ones
        plans = []  # (partition, version, heap, kept, same-heap predecessor)
        lent: list[tuple[_PartitionState, int, int]] = []
        for partition, version, heap in rebuilt:
            old = states.get(partition.pid)
            kept: list[tuple[int, int, int, int]] = []
            if old is not None and old.heap_id == heap.file_id:
                kept, old_runs = _page_runs(heap, old)
                lent += old_runs
            elif old is not None:  # now on another heap: lend it whole
                lent.append((old, 0, len(old.raw)))
                old = None
            plans.append((partition, version, heap, kept, old))
        lent.extend(
            (state, 0, len(state.raw))
            for pid, state in states.items() if pid not in live_pids
        )
        donors = _Donors(lent) if lent else None
        pages_read = 0
        for partition, version, heap, kept, old in plans:
            state, pages = _PartitionState.successor(
                partition.pid, version, heap, dictionary, kept, old, donors
            )
            state.mask = partition.mask
            states[partition.pid] = state
            pages_read += pages
        for pid in list(states):
            if pid not in live_pids:
                del states[pid]
        span.set("rebuilt", len(rebuilt))
        span.set("appended", appended)
        span.set("pages_read", pages_read)
        views = [
            PartitionView(
                partition.pid, partition.mask, version,
                len(states[partition.pid].raw), states[partition.pid],
            )
            for partition, version in current
        ]
        views.sort(key=lambda view: view.pid)
        snapshot = TableSnapshot(
            self._next_snapshot_id,
            catalog.version_clock,
            tuple(views),
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

    # ------------------------------------------------------------------
    # pinning and retention
    # ------------------------------------------------------------------
    def pin(self, snapshot: TableSnapshot) -> TableSnapshot:
        with self._lock:
            snapshot.pins += 1
            return snapshot

    def release(self, snapshot: TableSnapshot) -> None:
        with self._lock:
            if snapshot.pins <= 0:
                raise RuntimeError(
                    f"snapshot {snapshot.snapshot_id} released more than pinned"
                )
            snapshot.pins -= 1
            self._gc_locked()

    def _gc_locked(self) -> None:
        """Drop the oldest unpinned non-latest snapshots beyond ``retain``.

        The invariants the isolation battery pins: the latest snapshot
        and every pinned snapshot are never collected, no matter how far
        past the retention bound they push the retained set.
        """
        while len(self._retained) > self.retain:
            victim = None
            for snapshot in self._retained.values():
                if snapshot.pins == 0 and snapshot is not self._latest:
                    victim = snapshot
                    break
            if victim is None:
                return  # everything old is pinned: retention grows, GC waits
            del self._retained[victim.snapshot_id]
            self.retired += 1
