"""Differential tests: the SQL executor vs the native attribute-query path.

``AttributeQuery.sql()`` renders the paper's SQL form of every attribute
query (``SELECT a, b FROM universalTable WHERE a IS NOT NULL OR b IS NOT
NULL``).  Feeding that text back through :func:`repro.sql.execute` must
produce exactly the rows the native :meth:`CinderellaTable.execute` path
produces on the same catalog.  The two share the pruning rule, the
planner and the heap scan, and differ in predicate evaluation and
projection; agreement pins those to each other.

Both paths visit partitions in plan order (ascending pid) and records in
heap-scan order, so rows are compared in order, and SQL's pruned
partitions must be the native plan's.  The same holds on a published
:class:`~repro.query.snapshot.TableSnapshot` of the table; a snapshot
``scoped()`` to some shards must return the rows of the entities in
scope.  The naive full scan is compared by row multiset.
"""

import pytest

from repro.core.config import CinderellaConfig
from repro.query.cache import QueryResultCache
from repro.query.query import AttributeQuery
from repro.query.snapshot import ShardScope, SnapshotManager
from repro.sql import execute
from repro.table.partitioned import CinderellaTable
from repro.workloads.dbpedia import generate_dbpedia_persons

from tests.conftest import row_multiset

SCOPE = ShardScope(3, frozenset({0, 2}))


def assert_same_rows(query: AttributeQuery, table: CinderellaTable) -> None:
    """SQL agrees with the native path on the live table, on a published
    snapshot of it and on a scoped view of that snapshot."""
    sql = query.sql()
    plan = table.plan(query)
    native = table.execute(query).rows
    naive = table.execute_naive(query).rows
    snapshot = SnapshotManager().publish(table)
    for target in (table, snapshot):
        result = execute(sql, target)
        assert result.rows == native, (sql, target)
        assert result.pruned_pids == plan.pruned_pids, (sql, target)
    assert row_multiset(native) == row_multiset(naive), sql
    scoped = execute(sql, snapshot.scoped(SCOPE))
    in_scope = [
        query.project(entity.attributes)
        for entity in table.scan()
        if entity.entity_id % SCOPE.n_shards in SCOPE.shards
        and query.matches(entity.attributes)
    ]
    assert row_multiset(scoped.rows) == row_multiset(in_scope), sql
    assert scoped.rows == snapshot.scoped(SCOPE).execute(query).rows, sql
    assert scoped.pruned_pids == plan.pruned_pids, sql


@pytest.fixture()
def loaded_table():
    dataset = generate_dbpedia_persons(n_entities=400, seed=17)
    table = CinderellaTable(
        CinderellaConfig(
            max_partition_size=40.0, weight=0.3, use_synopsis_index=True
        ),
        result_cache=QueryResultCache(),
    )
    for entity in dataset.entities:
        table.insert(entity.attributes, entity_id=entity.entity_id)
    return table


def _probe_queries(table: CinderellaTable) -> list[AttributeQuery]:
    """Queries over frequent, rare, and absent attributes, both modes."""
    names = sorted(table.dictionary.names())
    assert len(names) >= 4
    picks = [
        (names[0],),
        (names[1], names[3]),
        (names[0], names[2], names[len(names) // 2]),
        (names[-1],),
        (names[2], "no_such_attribute"),
    ]
    return [
        AttributeQuery(attributes, mode)
        for attributes in picks
        for mode in ("any", "all")
    ]


class TestSqlMatchesNativeExecutor:
    def test_agreement_on_loaded_catalog(self, loaded_table):
        for query in _probe_queries(loaded_table):
            assert_same_rows(query, loaded_table)

    def test_agreement_survives_mutations(self, loaded_table):
        table = loaded_table
        queries = _probe_queries(table)
        for query in queries:
            assert_same_rows(query, table)
        # mutate: deletes, updates, inserts forcing further splits
        for eid in range(0, 100, 7):
            table.delete(eid)
        for eid in range(101, 160, 9):
            table.update(eid, {"name": f"renamed {eid}", "deathPlace": "X"})
        for eid in range(10_000, 10_120):
            table.insert(
                {"name": f"new {eid}", "occupation": "tester", "era": eid % 5},
                entity_id=eid,
            )
        for query in queries:
            assert_same_rows(query, table)
        assert table.check_consistency() == []

    def test_agreement_on_cache_hits(self, loaded_table):
        """Second execution serves from the result cache; SQL must agree."""
        table = loaded_table
        query = AttributeQuery(tuple(sorted(table.dictionary.names())[:2]))
        table.execute(query)  # populate the cache
        hits_before = table.query_counters.cache_hits
        assert_same_rows(query, table)  # native side now cache-served
        assert table.query_counters.cache_hits > hits_before

    def test_agreement_after_maintenance(self, loaded_table):
        table = loaded_table
        queries = _probe_queries(table)
        table.merge_small_partitions(min_fill=0.6)
        for query in queries:
            assert_same_rows(query, table)
        table.reorganize()
        for query in queries:
            assert_same_rows(query, table)
        assert table.check_consistency() == []
