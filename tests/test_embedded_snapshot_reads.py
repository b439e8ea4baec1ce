"""The embedded table reads its own snapshot, charged like the heaps.

``CinderellaTable.execute`` answers every branch the result cache does
not from the table's lazily published snapshot
(:meth:`~repro.table.partitioned.CinderellaTable.snapshot`) instead of
scanning the partition's heap file, and charges the heap exactly what
that scan would have charged.  Two batteries hold it to that:

* **differential** — twin tables, each with a buffer pool, replay one
  seeded trace (splits, in-place and moving updates, deletes
  that drop partitions, merges, a reorganization, a refused write
  rolled back to its savepoint, a save/load round trip).  After every
  step one reads through ``execute``, the other through the heap path
  (the same plan and union-all loop over ``heap_of``): rows and row
  order, every ``ExecutionStats`` field but ``wall_time_s``, the
  table's I/O, the pool's hits and misses and the query-path counters
  must all agree, and ``execute`` must equal ``execute_naive``;
* **proportionality** — k writes then a read cost one publish; after an
  in-place update in a multi-page partition the next read decodes at
  most the changed record, and after a split none of the moved ones.
"""

import dataclasses

import pytest

from repro.core.config import CinderellaConfig
from repro.query import executor, snapshot
from repro.query.cache import QueryResultCache
from repro.query.executor import execute_union_all
from repro.query.query import AttributeQuery
from repro.storage.buffer import BufferPool
from repro.storage.page import PageFullError
from repro.storage.snapshot import load_table, save_table
from repro.table.partitioned import CinderellaTable
from repro.workloads.dbpedia import generate_dbpedia_persons
from repro.workloads.modifications import generate_trace

from tests.conftest import WORKLOAD_SEED, row_multiset

N_ENTITIES = 220
OPERATIONS = 150
WARMUP = 60
MERGE_AT = (100, 160)
REORGANIZE_AT = 130
#: a refused write rolled back to a savepoint inside a committed
#: transaction
SAVEPOINT_AT = 80
ROUND_TRIP_AT = 175
PAGE_SIZE = 1024
POOL_PAGES = 6

QUERIES = (
    AttributeQuery(("name",)),
    AttributeQuery(("occupation", "team")),
    AttributeQuery(("birthDate", "deathDate"), mode="all"),
    AttributeQuery(("deathPlace", "no_such_attribute")),
    AttributeQuery(("name", "no_such_attribute"), mode="all"),  # matches nothing
)


def make_table(cached: bool) -> CinderellaTable:
    return CinderellaTable(
        CinderellaConfig(
            max_partition_size=12.0, weight=0.3, use_synopsis_index=True
        ),
        page_size=PAGE_SIZE,
        buffer_pool=BufferPool(POOL_PAGES),
        result_cache=QueryResultCache() if cached else None,
    )


def heap_execute(table: CinderellaTable, query: AttributeQuery):
    """``execute`` as it read before the snapshot: the same plan, the
    same counters and union-all loop, every scanned branch read from
    its heap file."""
    if table.catalog.index is not None:
        table.query_counters.index_resolutions += 1
    else:
        table.query_counters.catalog_scan_resolutions += 1
    heaps = {pid: table.heap_of(pid) for pid in table.catalog.partition_ids()}
    return execute_union_all(
        table.plan(query), heaps, table.dictionary,
        catalog=table.catalog, cache=table.result_cache,
        counters=table.query_counters,
    )


def accounted(stats) -> dict:
    fields = dataclasses.asdict(stats)
    del fields["wall_time_s"]
    return fields


def check(reader: CinderellaTable, twin: CinderellaTable) -> None:
    for table in (reader, twin):
        assert table.check_consistency() == []
    for query in QUERIES:
        fast = reader.execute(query)
        reference = heap_execute(twin, query)
        assert fast.plan == reference.plan, query.sql()
        assert fast.rows == reference.rows, query.sql()
        assert accounted(fast.stats) == accounted(reference.stats), query.sql()
        naive = reader.execute_naive(query)
        assert twin.execute_naive(query).rows == naive.rows
        assert row_multiset(fast.rows) == row_multiset(naive.rows), query.sql()
    assert reader.io == twin.io
    assert (reader.buffer_pool.hits, reader.buffer_pool.misses) == (
        twin.buffer_pool.hits, twin.buffer_pool.misses
    )
    assert reader.query_counters.as_dict() == twin.query_counters.as_dict()


def round_trip(table: CinderellaTable, path, cached: bool) -> CinderellaTable:
    """Save and load *table*; the loaded one gets a pool (and cache) of
    its own, as :func:`make_table` gives."""
    save_table(table, path)
    loaded = load_table(path)
    loaded.buffer_pool = BufferPool(POOL_PAGES)
    for pid in loaded.catalog.partition_ids():
        loaded.heap_of(pid).buffer_pool = loaded.buffer_pool
    if cached:
        loaded.result_cache = QueryResultCache(counters=loaded.query_counters)
    return loaded


def apply(table: CinderellaTable, operation):
    if operation.kind == "insert":
        return table.insert(operation.attributes, entity_id=operation.entity_id)
    if operation.kind == "update":
        return table.update(operation.entity_id, operation.attributes)
    return table.delete(operation.entity_id)


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_execute_reads_like_the_heaps_at_every_step(cached, tmp_path):
    dataset = generate_dbpedia_persons(n_entities=N_ENTITIES, seed=WORKLOAD_SEED)
    trace = generate_trace(
        dataset, operations=OPERATIONS, insert_share=0.45, update_share=0.35,
        churn_update_share=0.4, warmup=WARMUP, seed=WORKLOAD_SEED,
    )
    reader, twin = make_table(cached), make_table(cached)
    seen = {"split": 0, "in_place": 0, "moved": 0, "dropping_delete": 0}
    for step, operation in enumerate(trace, 1):
        outcomes = []
        for table in (reader, twin):
            if step == SAVEPOINT_AT:
                txn = table.catalog.begin_transaction()
                savepoint = txn.savepoint()
                with pytest.raises(PageFullError):
                    table.update(min(table.entity_ids()), {"name": "x" * PAGE_SIZE})
                txn.rollback_to(savepoint)
                outcomes.append(apply(table, operation))
                txn.commit()
            else:
                outcomes.append(apply(table, operation))
            if step in MERGE_AT:
                assert table.merge_small_partitions(min_fill=0.5).moves
            if step == REORGANIZE_AT:
                table.reorganize(order="size")
        assert outcomes[0] == outcomes[1]
        outcome = outcomes[0]
        if operation.kind == "insert" and outcome.splits:
            seen["split"] += 1
        elif operation.kind == "update":
            seen["in_place" if outcome.in_place else "moved"] += 1
        elif operation.kind == "delete" and outcome.dropped_partitions:
            seen["dropping_delete"] += 1
        if step == ROUND_TRIP_AT:
            reader = round_trip(reader, tmp_path / "reader.json", cached)
            twin = round_trip(twin, tmp_path / "twin.json", cached)
        check(reader, twin)

    # the trace must have exercised what it claims to
    assert all(seen.values()), seen
    assert reader._snapshots.published > 0
    if cached:
        assert reader.query_counters.cache_hits > 0


# ----------------------------------------------------------------------
# proportionality: publishes and decodes per read
# ----------------------------------------------------------------------
COMMON = AttributeQuery(("common",))


@pytest.fixture
def decoded(monkeypatch):
    """Entity ids of the records the snapshot and the executor decode."""
    eids: list[int] = []
    decode = snapshot.deserialize_record

    def counting(record, dictionary):
        eid, attributes = decode(record, dictionary)
        eids.append(eid)
        return eid, attributes

    monkeypatch.setattr(snapshot, "deserialize_record", counting)
    monkeypatch.setattr(executor, "deserialize_record", counting)
    return eids


def big_partition(page_size: int = 512) -> CinderellaTable:
    """400 records in one partition spread over many pages."""
    table = CinderellaTable(
        CinderellaConfig(max_partition_size=100_000.0, weight=0.3),
        page_size=page_size,
    )
    for i in range(400):
        table.insert({"common": i % 3, "attr0": i, "attr1": i}, entity_id=i)
    assert len(table.catalog) == 1
    return table


def test_k_writes_then_a_read_cost_one_publish():
    table = big_partition()
    table.execute(COMMON)
    for k in (1, 2, 7):
        published = table._snapshots.published
        for i in range(k):
            table.update(i, {"common": 9, "attr0": -i, "attr1": -i})
            table.insert({"common": 1, "attr0": 1000 + i}, entity_id=1000 + i)
            table.delete(1000 + i)
        table.execute(COMMON)
        table.execute(AttributeQuery(("attr1",)))
        assert table._snapshots.published == published + 1


def test_an_in_place_update_costs_the_next_read_one_decode(decoded):
    table = big_partition()
    (partition,) = table.catalog
    assert table.heap_of(partition.pid).page_count > 1
    rows = table.execute(COMMON).rows
    assert sorted(decoded) == list(range(400))

    del decoded[:]
    assert table.update(205, {"common": 7, "attr0": -5, "attr1": -5}).in_place
    after = table.execute(COMMON).rows
    assert decoded == [205]
    assert after[205] == {"common": 7} and after[:205] == rows[:205]


def test_a_split_decodes_none_of_the_records_it_moved(decoded):
    table = CinderellaTable(CinderellaConfig(max_partition_size=60.0, weight=0.3))
    for eid in range(200):
        outcome = table.insert(
            {"common": eid % 3, f"attr{eid % 2}": eid}, entity_id=eid
        )
        del decoded[:]
        result = table.execute(COMMON)
        assert decoded == [eid]  # just the new record
        assert result.rows == table.execute_naive(COMMON).rows
        if outcome.splits:
            moved = {move.eid for move in outcome.moves} - {eid}
            assert len(moved) > 1
            break
    else:
        raise AssertionError("no insert split the partition")
