"""Unit tests: partition content versions and the query result cache."""

import pytest

from repro.catalog.catalog import PartitionCatalog, PartitionNotFoundError
from repro.core.config import CinderellaConfig
from repro.obs.counters import QueryPathCounters
from repro.query.cache import QueryResultCache, verify_cache_coherence
from repro.query.executor import execute_union_all
from repro.query.query import AttributeQuery
from repro.query.rewrite import UnionAllPlan
from repro.table.partitioned import CinderellaTable


def fast_table(max_partition_size=4.0, weight=0.3, cache=None):
    """A table with the whole fast path on: index + result cache."""
    return CinderellaTable(
        CinderellaConfig(
            max_partition_size=max_partition_size,
            weight=weight,
            use_synopsis_index=True,
        ),
        result_cache=cache if cache is not None else QueryResultCache(),
    )


class TestPartitionVersions:
    def test_every_mutation_bumps(self):
        catalog = PartitionCatalog()
        partition = catalog.create_partition()
        v0 = catalog.version_of(partition.pid)
        catalog.add_entity(partition.pid, 1, 0b1, 1.0)
        v1 = catalog.version_of(partition.pid)
        assert v1 > v0
        catalog.update_entity(1, 0b11, 1.0)
        v2 = catalog.version_of(partition.pid)
        assert v2 > v1
        catalog.add_entity(partition.pid, 2, 0b1, 1.0)
        catalog.remove_entity(1)
        v3 = catalog.version_of(partition.pid)
        assert v3 > v2

    def test_clock_is_global_and_monotonic(self):
        catalog = PartitionCatalog()
        a = catalog.create_partition()
        b = catalog.create_partition()
        catalog.add_entity(a.pid, 1, 0b1, 1.0)
        catalog.add_entity(b.pid, 2, 0b1, 1.0)
        # the two partitions never share a version value
        assert catalog.version_of(a.pid) != catalog.version_of(b.pid)
        assert catalog.version_clock >= max(
            catalog.version_of(a.pid), catalog.version_of(b.pid)
        )

    def test_drop_forgets_version(self):
        catalog = PartitionCatalog()
        partition = catalog.create_partition()
        catalog.drop_partition(partition.pid)
        with pytest.raises(PartitionNotFoundError):
            catalog.version_of(partition.pid)

    def test_version_of_unknown_pid_raises(self):
        with pytest.raises(PartitionNotFoundError):
            PartitionCatalog().version_of(99)

    def test_rollback_keeps_clock_monotonic(self):
        """Undo must advance versions, not restore them — otherwise an
        entry cached mid-transaction could validate again after rollback."""
        catalog = PartitionCatalog()
        partition = catalog.create_partition()
        catalog.add_entity(partition.pid, 1, 0b1, 1.0)
        version_before = catalog.version_of(partition.pid)
        clock_before = catalog.version_clock
        txn = catalog.begin_transaction()
        catalog.add_entity(partition.pid, 2, 0b10, 1.0)
        mid_version = catalog.version_of(partition.pid)
        txn.rollback()
        after = catalog.version_of(partition.pid)
        assert after > mid_version > version_before
        assert catalog.version_clock > clock_before
        assert catalog.check_invariants() == []

    def test_rollback_recreated_pid_gets_fresh_version(self):
        """A pid dropped and re-created through undo must not present a
        version any cache entry could have been stored under."""
        catalog = PartitionCatalog()
        partition = catalog.create_partition()
        catalog.add_entity(partition.pid, 1, 0b1, 1.0)
        seen = {catalog.version_of(partition.pid)}
        txn = catalog.begin_transaction()
        catalog.remove_entity(1)
        catalog.drop_partition(partition.pid)
        txn.rollback()
        assert catalog.version_of(partition.pid) not in seen
        assert catalog.check_invariants() == []

    def test_adopt_version_clock_restamps_everything(self):
        old = PartitionCatalog()
        p_old = old.create_partition()
        old.add_entity(p_old.pid, 1, 0b1, 1.0)
        rebuilt = PartitionCatalog()
        p_new = rebuilt.create_partition()  # same pid 0 as in `old`
        assert p_new.pid == p_old.pid
        rebuilt.adopt_version_clock(old.version_clock)
        assert rebuilt.version_of(p_new.pid) > old.version_of(p_old.pid)
        assert rebuilt.version_clock >= old.version_clock

    def test_version_invariants_detect_corruption(self):
        catalog = PartitionCatalog()
        partition = catalog.create_partition()
        catalog._versions[partition.pid] = catalog.version_clock + 10
        assert any("version clock" in p for p in catalog.check_invariants())
        del catalog._versions[partition.pid]
        assert any("version map" in p for p in catalog.check_invariants())


class TestQueryResultCache:
    def test_roundtrip_and_stale_drop(self):
        cache = QueryResultCache()
        query = AttributeQuery(("a",))
        cache.store(query, pid=0, version=3, rows=[{"a": 1}, {"a": 2}])
        assert cache.lookup(query, 0, 3) == [{"a": 1}, {"a": 2}]
        assert cache.lookup(query, 0, 4) is None  # partition mutated
        assert len(cache) == 0  # the stale entry was dropped on sight

    def test_served_rows_are_copies(self):
        cache = QueryResultCache()
        query = AttributeQuery(("a",))
        source = [{"a": 1}]
        cache.store(query, 0, 1, source)
        source[0]["a"] = 99  # caller mutates its list after storing
        served = cache.lookup(query, 0, 1)
        assert served == [{"a": 1}]
        served[0]["a"] = -1  # and mutates what it was served
        assert cache.lookup(query, 0, 1) == [{"a": 1}]

    def test_distinct_queries_never_collide(self):
        cache = QueryResultCache()
        # same known attribute, but different projection / mode: the key
        # is the query identity, not its synopsis mask
        q_plain = AttributeQuery(("a",))
        q_ghost = AttributeQuery(("a", "ghost"))
        q_all = AttributeQuery(("a",), mode="all")
        cache.store(q_plain, 0, 1, [{"a": 1}])
        cache.store(q_ghost, 0, 1, [{"a": 1, "ghost": None}])
        cache.store(q_all, 0, 1, [{"a": 1}])
        assert cache.lookup(q_plain, 0, 1) == [{"a": 1}]
        assert cache.lookup(q_ghost, 0, 1) == [{"a": 1, "ghost": None}]
        assert len(cache) == 3

    def test_lru_eviction_and_counters(self):
        counters = QueryPathCounters()
        cache = QueryResultCache(max_entries=2, counters=counters)
        query = AttributeQuery(("a",))
        cache.store(query, 0, 1, [])
        cache.store(query, 1, 1, [])
        assert cache.lookup(query, 0, 1) == []  # 0 is now most recent
        cache.store(query, 2, 1, [])  # evicts pid 1 (least recent)
        assert cache.lookup(query, 1, 1) is None
        assert cache.lookup(query, 0, 1) == []
        assert counters.cache_evictions == 1
        assert counters.cache_hits == 2
        assert counters.cache_misses == 1

    def test_invalidate_partition_and_clear(self):
        cache = QueryResultCache()
        q1, q2 = AttributeQuery(("a",)), AttributeQuery(("b",))
        cache.store(q1, 0, 1, [])
        cache.store(q2, 0, 1, [])
        cache.store(q1, 1, 1, [])
        assert cache.invalidate_partition(0) == 2
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            QueryResultCache(max_entries=0)

    def test_cache_requires_catalog(self):
        plan = UnionAllPlan(AttributeQuery(("a",)), (), ())
        with pytest.raises(ValueError):
            execute_union_all(plan, {}, None, cache=QueryResultCache())


class TestTableFastPath:
    def test_repeat_query_hits_and_skips_io(self):
        table = fast_table()
        for eid in range(6):
            table.insert({"a": eid, "b": eid * 2}, entity_id=eid)
        query = AttributeQuery(("a",))
        cold = table.execute(query)
        warm = table.execute(query)
        assert warm.rows == cold.rows
        assert cold.stats.cache_misses == cold.stats.partitions_scanned > 0
        assert warm.stats.cache_hits == cold.stats.cache_misses
        assert warm.stats.partitions_scanned == 0
        assert warm.stats.pages_read == 0
        assert warm.stats.entities_read == 0
        assert table.query_counters.rows_served_from_cache == len(cold.rows)

    @pytest.mark.parametrize("mutate", ["insert", "update", "delete"])
    def test_mutations_invalidate_exactly(self, mutate):
        table = fast_table(max_partition_size=100.0)
        for eid in range(4):
            table.insert({"a": eid}, entity_id=eid)
        query = AttributeQuery(("a",))
        table.execute(query)
        if mutate == "insert":
            table.insert({"a": 99}, entity_id=99)
        elif mutate == "update":
            table.update(0, {"a": -1})
        else:
            table.delete(0)
        result = table.execute(query)
        assert result.stats.cache_hits == 0  # the partition's version moved
        assert result.rows == table.execute_naive(query).rows
        assert verify_cache_coherence(table.result_cache, table) == []

    def test_update_of_values_only_invalidates(self):
        """Same attribute set, new value: the synopsis is unchanged but
        the cached rows are not — the version must still move."""
        table = fast_table(max_partition_size=100.0)
        table.insert({"a": 1}, entity_id=0)
        query = AttributeQuery(("a",))
        assert table.execute(query).rows == [{"a": 1}]
        table.update(0, {"a": 2})
        assert table.execute(query).rows == [{"a": 2}]

    def test_split_invalidates(self):
        table = fast_table(max_partition_size=2.0)
        table.insert({"a": 1, "b": 1}, entity_id=0)
        query = AttributeQuery(("a",))
        table.execute(query)
        # same schema keeps rating positive; capacity 2 forces a split
        table.insert({"a": 2, "b": 2}, entity_id=1)
        table.insert({"a": 3, "b": 3}, entity_id=2)
        assert table.partitioner.split_count >= 1
        result = table.execute(query)
        assert result.rows == table.execute_naive(query).rows
        assert sorted(r["a"] for r in result.rows) == [1, 2, 3]
        assert verify_cache_coherence(table.result_cache, table) == []

    def test_merge_invalidates(self):
        # two schema-compatible partitions built under a tiny limit...
        table = fast_table(max_partition_size=1.0)
        table.insert({"a": 1}, entity_id=0)
        table.insert({"a": 2}, entity_id=1)
        assert table.partition_count() == 2
        query = AttributeQuery(("a",))
        before = table.execute(query)
        # ...then merged once the limit is relaxed
        table.partitioner.config = CinderellaConfig(
            max_partition_size=10.0, weight=0.3, use_synopsis_index=True
        )
        report = table.merge_small_partitions(min_fill=0.9)
        assert report.merge_count == 1
        after = table.execute(query)
        assert after.stats.cache_hits == 0
        assert sorted(r["a"] for r in after.rows) == sorted(
            r["a"] for r in before.rows
        )
        assert verify_cache_coherence(table.result_cache, table) == []
        assert table.check_consistency() == []

    def test_reorganize_invalidates_and_rebuilds_physically(self):
        table = fast_table(max_partition_size=3.0)
        for eid in range(9):
            table.insert({f"a{eid % 3}": eid}, entity_id=eid)
        queries = [AttributeQuery((f"a{i}",)) for i in range(3)]
        before = [table.execute(q).rows for q in queries]
        clock_before = table.catalog.version_clock
        report = table.reorganize(order="size")
        assert report.partitioner is table.partitioner
        assert table.catalog.version_clock > clock_before
        assert table.check_consistency() == []
        for query, rows in zip(queries, before):
            result = table.execute(query)
            assert result.stats.cache_hits == 0  # every version re-stamped
            assert result.rows == table.execute_naive(query).rows
            assert sorted(map(str, result.rows)) == sorted(map(str, rows))
        assert verify_cache_coherence(table.result_cache, table) == []

    def test_counters_as_dict_and_rates(self):
        counters = QueryPathCounters()
        assert counters.cache_hit_rate() == 1.0
        assert counters.pruning_ratio() == 0.0
        counters.cache_hits = 3
        counters.cache_misses = 1
        counters.partitions_considered = 10
        counters.partitions_pruned = 4
        as_dict = counters.as_dict()
        assert as_dict["cache_hit_rate"] == 0.75
        assert as_dict["pruning_ratio"] == 0.4
        assert as_dict["cache_hits"] == 3

    def test_uncached_table_still_counts_queries(self):
        table = CinderellaTable(CinderellaConfig(max_partition_size=10.0))
        table.insert({"a": 1}, entity_id=0)
        table.execute(AttributeQuery(("a",)))
        assert table.query_counters.queries_total == 1
        assert table.query_counters.catalog_scan_resolutions == 1
        assert table.query_counters.index_resolutions == 0
