"""Partition-granular query result cache with exact version invalidation.

Pruning (Definition 1) decides *which* partitions a query must touch;
this cache removes the re-scan of partitions that have not changed since
the same query last touched them.  Entries are keyed by ``(query,
partition id)`` and validated against the partition's *content version*
— the catalog stamps every partition with a fresh value of a global
monotonic mutation clock on every member add/remove/update and on
(re-)creation (see ``PartitionCatalog._bump_version``).  A hit is served
only when the stored version equals the partition's current version, so
a cached result can never survive any mutation of its partition:
inserts, updates, deletes, splits and merges all bump through the
catalog mutators, undo-log rollback bumps through the same mutators it
replays, and an offline reorganization that swaps in a rebuilt catalog
re-stamps every partition past the replaced catalog's clock
(:meth:`~repro.catalog.catalog.PartitionCatalog.adopt_version_clock`).

The key is the full query identity (attribute tuple + mode), not just
the query's synopsis mask: two queries with the same mask can differ in
projection (an attribute unknown to the dictionary contributes no mask
bit but does contribute a ``None`` output column).

Capacity is bounded with LRU eviction; all cache traffic is counted in
a :class:`~repro.obs.counters.QueryPathCounters` when one is
attached.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional, TYPE_CHECKING

from repro.query.query import AttributeQuery

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.counters import QueryPathCounters

#: (query identity, partition id)
CacheKey = tuple[tuple[str, ...], str, int]


def _key(query: AttributeQuery, pid: int) -> CacheKey:
    return (query.attributes, query.mode, pid)


class QueryResultCache:
    """LRU cache of per-partition query results, version-validated.

    >>> from repro.query.query import AttributeQuery
    >>> cache = QueryResultCache(max_entries=2)
    >>> q = AttributeQuery(("a",))
    >>> cache.store(q, pid=0, version=1, rows=[{"a": 1}])
    >>> cache.lookup(q, pid=0, version=1)
    [{'a': 1}]
    >>> cache.lookup(q, pid=0, version=2) is None  # partition mutated
    True
    """

    def __init__(
        self,
        max_entries: int = 4096,
        counters: Optional["QueryPathCounters"] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.counters = counters
        # key -> (version, rows); OrderedDict gives LRU order
        self._entries: OrderedDict[CacheKey, tuple[int, list[dict[str, Any]]]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, query: AttributeQuery, pid: int, version: int
    ) -> Optional[list[dict[str, Any]]]:
        """The cached rows for ``(query, pid)`` at exactly *version*.

        Returns ``None`` on a miss.  An entry stored under an *older*
        version than the one requested is dropped on sight (it can
        never validate again — the clock is monotonic) and counted as a
        stale drop.  An entry stored under a *newer* version misses
        without dropping: MVCC snapshot readers ask for historical
        versions, and an entry that is current for the live table must
        survive a pinned old snapshot passing through.  Served rows are
        copies: callers may mutate them freely.
        """
        key = _key(query, pid)
        entry = self._entries.get(key)
        if entry is None:
            self._count("cache_misses")
            return None
        stored_version, rows = entry
        if stored_version != version:
            if stored_version < version:
                del self._entries[key]
                self._count("cache_stale_drops")
            self._count("cache_misses")
            return None
        self._entries.move_to_end(key)
        self._count("cache_hits")
        return [dict(row) for row in rows]

    def store(
        self,
        query: AttributeQuery,
        pid: int,
        version: int,
        rows: list[dict[str, Any]],
    ) -> None:
        """Remember the rows one partition contributed to one query."""
        key = _key(query, pid)
        self._entries[key] = (version, [dict(row) for row in rows])
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._count("cache_evictions")

    def invalidate_partition(self, pid: int) -> int:
        """Drop every entry of one partition; returns the count dropped.

        Version validation already makes this unnecessary for
        correctness — it exists for memory hygiene when a partition is
        dropped for good (its versions will never be queried again).
        """
        doomed = [key for key in self._entries if key[2] == pid]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()

    def entries(self) -> list[tuple[CacheKey, int]]:
        """(key, stored version) pairs — for coherence checks in tests."""
        return [(key, version) for key, (version, _rows) in self._entries.items()]

    def rows_at(self, key: CacheKey) -> list[dict[str, Any]]:
        """The stored rows of one entry (coherence checks only)."""
        return [dict(row) for row in self._entries[key][1]]

    def _count(self, field: str) -> None:
        if self.counters is not None:
            setattr(self.counters, field, getattr(self.counters, field) + 1)


def verify_cache_coherence(cache: QueryResultCache, table) -> list[str]:
    """Cross-check every *servable* cache entry against a fresh scan.

    An entry is servable when its partition still exists and its stored
    version equals the partition's current content version — exactly the
    condition :meth:`QueryResultCache.lookup` serves under.  For each
    servable entry the partition is re-scanned and the rows must match
    bit for bit; any mismatch means a mutation failed to bump the
    version (a stale-serve bug).  Entries whose version moved on are
    fine by definition — they can never be served again.

    Returns human-readable problems (empty = coherent).  Used by the
    property suite and the soak test.
    """
    from repro.query.executor import ExecutionStats, scan_heap

    problems: list[str] = []
    catalog = table.catalog
    for (attributes, mode, pid), version in cache.entries():
        if pid not in catalog:
            continue
        if catalog.version_of(pid) != version:
            continue
        query = AttributeQuery(attributes, mode)
        fresh: list[dict[str, Any]] = []
        scan_heap(table.heap_of(pid), table.dictionary, ExecutionStats(),
                  fresh, query.matches, query.project)
        stored = cache.rows_at((attributes, mode, pid))
        if fresh != stored:
            problems.append(
                f"cache entry {(attributes, mode, pid)} at version {version} "
                f"holds {stored!r} but a fresh scan returns {fresh!r}"
            )
    return problems
