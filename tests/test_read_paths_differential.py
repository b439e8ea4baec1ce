"""Every read path returns the same rows, through every way a record is
stored, moved and restored.

The snapshot reads prune entities by the synopsis mask each stored
record carries (``repro.query.pruning.surviving_records``) and never
probe ``query.matches`` on the survivors: the mask alone decides.  That
is exact only while every record's mask equals its own attribute set,
through inserts, in-place and moving updates, split cascades, merges,
a reorganization, a snapshot load and a WAL replay.  This battery draws
write sequences that split partitions, runs each of those, and holds the
embedded ``execute``, ``TableSnapshot.serve_query`` (unscoped and under
a ``ShardScope``), ``TableSnapshot.execute`` and the rows a serving node
answers over the wire to the decode-everything oracle
(``execute_naive``), for ``any`` and ``all`` queries over None-valued
attributes and an attribute no entity ever had.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.config import CinderellaConfig
from repro.query.query import AttributeQuery
from repro.query.snapshot import ShardScope
from repro.server import CinderellaServer, ServerConfig, ServerThread
from repro.server.client import ServerClient
from repro.storage.snapshot import load_table, save_table
from repro.table.partitioned import CinderellaTable

from tests.conftest import row_multiset, served_rows

ATTRIBUTES = ("a", "b", "c", "d", "e")
#: a query attribute no write ever names
NEVER_SEEN = "never_seen"
QUERIES = [
    AttributeQuery(attributes, mode)
    for mode in ("any", "all")
    for attributes in (
        ("a",), ("b", "c"), ("a", "b", "c"), ("d", "e"),
        ("a", NEVER_SEEN), (NEVER_SEEN,),
    )
]
SCOPES = (ShardScope(2, frozenset({0})), ShardScope(2, frozenset({1})),
          ShardScope(3, frozenset({0, 2})))
#: small partitions, so a few dozen writes split and cascade
TABLE_CONFIG = CinderellaConfig(
    max_partition_size=4.0, weight=0.3, use_synopsis_index=True
)

values = st.sampled_from([None, 0, 7, -3, "x", "yy"])
attribute_sets = st.dictionaries(
    st.sampled_from(ATTRIBUTES), values, min_size=1, max_size=4
)
#: ("put", eid, attributes) inserts or updates; ("delete", eid, _) deletes
writes = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "put", "delete"]),
        st.integers(0, 23),
        attribute_sets,
    ),
    min_size=16,
    max_size=60,
)


def apply_writes(table: CinderellaTable, ops) -> None:
    for kind, eid, attributes in ops:
        if kind == "delete":
            if eid in table:
                table.delete(eid)
        elif eid in table:
            table.update(eid, attributes)
        else:
            table.insert(attributes, entity_id=eid)


def wire_writes(client: ServerClient, ops) -> None:
    present: set[int] = set()
    for kind, eid, attributes in ops:
        if kind == "delete":
            if eid in present:
                client.delete(eid)
                present.discard(eid)
        elif eid in present:
            client.update(eid, attributes)
        else:
            client.insert(attributes, eid=eid)
            present.add(eid)


def scoped_oracle(table: CinderellaTable, query: AttributeQuery, scope):
    """The rows of *query* over the entities in *scope*, every record
    decoded in full."""
    n_shards, shards = scope
    return [
        query.project(entity.attributes)
        for entity in table.scan()
        if entity.entity_id % n_shards in shards and query.matches(entity.attributes)
    ]


def assert_read_paths_agree(table: CinderellaTable) -> None:
    assert table.check_consistency() == []
    for query in QUERIES:
        expected = row_multiset(table.execute_naive(query).rows)
        assert row_multiset(table.execute(query).rows) == expected, query
        snapshot = table.snapshot()
        assert row_multiset(served_rows(snapshot.serve_query(query)[0])) == expected
        assert row_multiset(snapshot.execute(query).rows) == expected, query
        for scope in SCOPES:
            served = served_rows(snapshot.scoped(scope).serve_query(query)[0])
            assert row_multiset(served) == row_multiset(
                scoped_oracle(table, query, scope)
            ), (query, scope)


@settings(max_examples=60)
@given(writes)
def test_every_read_path_agrees_through_splits_merges_reorganize_and_reload(ops):
    table = CinderellaTable(TABLE_CONFIG)
    apply_writes(table, ops)
    assert_read_paths_agree(table)
    table.merge_small_partitions(min_fill=0.75)
    assert_read_paths_agree(table)
    table.reorganize()
    assert_read_paths_agree(table)
    # a write after the reorganization lands beside the moved records
    table.insert({"a": None, "e": 1})
    assert_read_paths_agree(table)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "table.json"
        save_table(table, path)
        loaded = load_table(path)
    assert_read_paths_agree(loaded)
    for query in QUERIES:
        assert row_multiset(loaded.execute(query).rows) == row_multiset(
            table.execute_naive(query).rows
        )


def _node(wal: Path) -> CinderellaServer:
    return CinderellaServer(
        config=ServerConfig(maintenance_interval_s=0, wal_path=wal),
        table_config=TABLE_CONFIG,
    )


@settings(max_examples=12)
@given(writes)
def test_every_read_path_agrees_after_a_wal_replay(ops):
    """A node restarted on its WAL rebuilds every record through the
    table's write path; its table, its snapshot and its wire answers
    agree with the oracle and with the same writes applied in process."""
    reference = CinderellaTable(TABLE_CONFIG)
    apply_writes(reference, ops)
    with tempfile.TemporaryDirectory() as scratch:
        wal = Path(scratch) / "node.wal"
        with ServerThread(server=_node(wal)) as harness, \
                ServerClient(*harness.address) as client:
            wire_writes(client, ops)
        restarted = _node(wal)
        with ServerThread(server=restarted) as harness, \
                ServerClient(*harness.address) as client:
            for query in QUERIES:
                expected = row_multiset(reference.execute_naive(query).rows)
                wire = client.query(query.attributes, mode=query.mode)
                assert row_multiset(wire) == expected, query
                for n_shards, shards in SCOPES:
                    response = client.request(
                        "query", attributes=list(query.attributes),
                        mode=query.mode,
                        shard_filter={"n_shards": n_shards, "shards": sorted(shards)},
                    )
                    assert row_multiset(response.get("rows")) == row_multiset(
                        scoped_oracle(reference, query, (n_shards, shards))
                    ), (query, shards)
        assert_read_paths_agree(restarted.table)
