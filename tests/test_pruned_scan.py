"""The pruned scan: entity synopses skip records undecoded.

Inside a partition that survives pruning, ``execute`` reads the table's
snapshot, which tests each record's entity synopsis (the mask the stored
record carries) against the query's clauses before decoding it, and
decodes a qualifying record once per change.  These tests hold that
scan to three things at every step of a seeded modification trace:

* **rows** — ``execute``, with and without a
  :class:`~repro.query.cache.QueryResultCache`, returns exactly the rows
  of ``execute_naive`` in the same order;
* **accounting** — its page, byte, entity, row and branch counts equal
  a full-decode heap scan of the same plan, so the cost model sees
  nothing change;
* **proportionality** — ``execute`` decodes each qualifying record once
  per change and nothing on a repeat, while the oracle, cache
  coherence, SQL and the views decode every record they scan.
"""

import pytest

from repro.core.config import CinderellaConfig
from repro.query import executor, snapshot
from repro.query.cache import QueryResultCache, verify_cache_coherence
from repro.query.executor import execute_union_all
from repro.query.query import AttributeQuery
from repro.sql.executor import execute as execute_sql
from repro.storage.page import PageFullError
from repro.table.partitioned import CinderellaTable
from repro.table.views import TableView
from repro.workloads.dbpedia import generate_dbpedia_persons
from repro.workloads.modifications import generate_trace

from tests.conftest import WORKLOAD_SEED

N_ENTITIES = 160
OPERATIONS = 120
WARMUP = 50
MERGE_AT = (90, 140)
REORGANIZE_AT = 115
#: a refused write rolled back to a savepoint inside a committed
#: transaction, and a transaction rolled back whole
SAVEPOINT_AT = 60
ROLLBACK_AT = 100

#: every ``NICKNAMED``-th entity also stores ``nickname`` as NULL
NICKNAMED = 4

QUERIES = (
    AttributeQuery(("name",)),
    AttributeQuery(("deathPlace",)),
    AttributeQuery(("occupation", "team")),
    AttributeQuery(("birthDate", "birthPlace", "almaMater")),
    AttributeQuery(("birthDate", "deathDate"), mode="all"),
    AttributeQuery(("name", "no_such_attribute"), mode="all"),
    AttributeQuery(("name", "no_such_attribute")),
    AttributeQuery(("nickname",)),
    AttributeQuery(("nickname", "deathPlace"), mode="all"),
)


def accounting(stats):
    return (
        stats.pages_read, stats.bytes_read, stats.entities_read,
        stats.rows_returned, stats.union_branches,
    )


def full_decode(table, plan):
    """The same plan, every record of every branch decoded in full."""
    heaps = {pid: table.heap_of(pid) for pid in plan.branch_pids}
    return execute_union_all(plan, heaps, table.dictionary)


def with_nickname(operation):
    attributes = dict(operation.attributes)
    if operation.entity_id % NICKNAMED == 0:
        attributes["nickname"] = None
    return attributes


def apply(table, operation):
    if operation.kind == "insert":
        table.insert(with_nickname(operation), entity_id=operation.entity_id)
    elif operation.kind == "update":
        table.update(operation.entity_id, with_nickname(operation))
    else:
        table.delete(operation.entity_id)


def too_large(table):
    return {"name": "x" * table.page_size}


def check(plain, cached):
    for table in (plain, cached):
        assert table.check_consistency() == []
    for query in QUERIES:
        oracle = plain.execute_naive(query)
        fast = plain.execute(query)
        assert fast.rows == oracle.rows, query.sql()
        assert accounting(fast.stats) == accounting(
            full_decode(plain, fast.plan).stats
        ), query.sql()
        assert cached.execute(query).rows == cached.execute_naive(query).rows
        assert cached.execute(query).rows == oracle.rows, query.sql()
    assert verify_cache_coherence(cached.result_cache, cached) == []


def test_pruned_scan_matches_the_oracle_at_every_step():
    dataset = generate_dbpedia_persons(n_entities=N_ENTITIES, seed=WORKLOAD_SEED)
    trace = generate_trace(
        dataset, operations=OPERATIONS, insert_share=0.45, update_share=0.3,
        churn_update_share=0.4, warmup=WARMUP, seed=WORKLOAD_SEED,
    )
    config = CinderellaConfig(
        max_partition_size=12.0, weight=0.3, use_synopsis_index=True
    )
    plain = CinderellaTable(config)
    cached = CinderellaTable(config, result_cache=QueryResultCache())
    for step, operation in enumerate(trace, 1):
        for table in (plain, cached):
            if step == SAVEPOINT_AT:
                txn = table.catalog.begin_transaction()
                savepoint = txn.savepoint()
                with pytest.raises(PageFullError):
                    table.update(min(table.entity_ids()), too_large(table))
                txn.rollback_to(savepoint)
                apply(table, operation)
                txn.commit()
            else:
                apply(table, operation)
            if step == ROLLBACK_AT:
                txn = table.catalog.begin_transaction()
                with pytest.raises(PageFullError):
                    table.insert(too_large(table))
                txn.rollback()
            if step in MERGE_AT:
                table.merge_small_partitions(min_fill=0.5)
            if step == REORGANIZE_AT:
                table.reorganize(order="size")
        check(plain, cached)

    # the trace must have exercised what it claims to
    assert plain.partitioner.split_count > 0
    assert any(
        plain.execute(AttributeQuery(("nickname",))).rows
    ), "no NULL-valued attribute was stored"
    assert cached.query_counters.cache_hits > 0


# ----------------------------------------------------------------------
# proportionality: decodes per scan
# ----------------------------------------------------------------------
N_RECORDS = 40
MATCH_EVERY = 4


@pytest.fixture
def decodes(monkeypatch):
    """The record of each call to the executor's or the snapshot's
    decoder."""
    calls = []
    decode = executor.deserialize_record

    def counting(record, dictionary):
        calls.append(record)
        return decode(record, dictionary)

    monkeypatch.setattr(executor, "deserialize_record", counting)
    monkeypatch.setattr(snapshot, "deserialize_record", counting)
    return calls


@pytest.fixture
def one_partition():
    """N_RECORDS entities in one partition; every MATCH_EVERY-th has ``x``."""
    table = CinderellaTable(
        CinderellaConfig(max_partition_size=1_000.0, weight=0.3),
        result_cache=QueryResultCache(),
    )
    for eid in range(N_RECORDS):
        attributes = {"common": eid, "name": f"e{eid}"}
        if eid % MATCH_EVERY == 0:
            attributes["x"] = eid
        table.insert(attributes, entity_id=eid)
    assert len(table.catalog) == 1
    return table


SHAPES = [
    AttributeQuery(("x",)),
    AttributeQuery(("x", "no_such_attribute")),
    AttributeQuery(("x", "name"), mode="all"),
]


@pytest.mark.parametrize("query", SHAPES, ids=["any", "any_with_unknown", "all"])
def test_execute_decodes_each_record_once_per_change(one_partition, decodes, query):
    """The first read publishes once and decodes each qualifying record
    of the surviving partitions once, in full; repeating every shape with
    no write between (cache misses included) decodes and publishes
    nothing, and a shape every entity meets decodes only the rest."""
    table = one_partition
    matching = N_RECORDS // MATCH_EVERY
    published = table._snapshots.published
    result = table.execute(query)
    assert result.plan.branch_pids == tuple(table.catalog.partition_ids())
    assert len(result.rows) == matching
    assert len({id(record) for record in decodes}) == matching
    assert len(decodes) == matching
    assert result.stats.entities_read == N_RECORDS
    assert table._snapshots.published == published + 1

    decodes.clear()
    repeats = [table.execute(shape) for shape in SHAPES]
    assert decodes == []
    assert table._snapshots.published == published + 1
    for shape, repeat in zip(SHAPES, repeats):
        assert repeat.rows == table.execute_naive(shape).rows
    assert accounting(result.stats) == accounting(
        full_decode(table, result.plan).stats
    )

    decodes.clear()
    everyone = AttributeQuery(("name",))
    assert len(table.execute(everyone).rows) == N_RECORDS
    assert len(decodes) == N_RECORDS - matching
    decodes.clear()
    table.execute(AttributeQuery(("common", "name"), mode="all"))
    assert decodes == []
    assert table._snapshots.published == published + 1


def test_the_oracles_decode_every_record(one_partition, decodes):
    table = one_partition
    query = AttributeQuery(("x",))
    table.execute(query)  # fills the cache for the coherence check
    decodes.clear()

    table.execute_naive(query)
    assert len(decodes) == N_RECORDS
    decodes.clear()
    assert verify_cache_coherence(table.result_cache, table) == []
    assert len(decodes) == N_RECORDS
    decodes.clear()
    assert len(execute_sql("SELECT x FROM t WHERE x IS NOT NULL", table).rows) == (
        N_RECORDS // MATCH_EVERY
    )
    assert len(decodes) == N_RECORDS
    decodes.clear()
    assert len(list(TableView("v", ["x"], table).rows())) == N_RECORDS // MATCH_EVERY
    assert len(decodes) == N_RECORDS
