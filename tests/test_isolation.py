"""Snapshot-isolation battery: the proof behind the MVCC read path.

Five parts, each pinning one leg of the concurrency model that replaced
the single-writer read barrier:

1. **Differential oracle** — snapshots held at commit points keep
   serving rows bit-identical to the naive full-scan oracle captured at
   the same instant, no matter how much the live table mutates, merges,
   or reorganizes afterwards — whole, and through shard scopes that
   share their partition states and chunk caches.
2. **Properties** (Hypothesis, derandomized by ``conftest``) — no
   snapshot ever exposes a torn batch, and publication is monotonic in
   both snapshot id and version clock.
3. **Retention** — the manager's ring always holds the latest snapshot;
   an older one lives exactly as long as a reader holds it.
4. **Concurrent wire soak** — sixteen real connections drive a mixed
   workload through the server; adaptive admission must keep the shed
   rate under two percent (the seed fixed-window server shed ~43% at
   this concurrency) while reads stay lock-free.  Beside it, the
   **pipelining differential** (Hypothesis): any op sequence sent as one
   burst on one connection is answered, response for response, like the
   same sequence sent one request at a time.
5. **Version-clock edges** — ``adopt_version_clock`` across an offline
   reorganization keeps publication monotonic, and a held snapshot
   outlives a merge/split cascade without a bit changing.
6. **Successor states** — a partition state rebuilt after a delete, an
   update or a split/merge move shares its predecessor's unchanged page
   views, and its stored records keep their decodes and rendered rows:
   it serves byte-identically to a fresh publish, a rebuild builds only
   the page views that changed, re-serving costs only the records that
   changed, and nothing keeps a replaced state alive.
7. **Publish by changed pid** — a publish rebuilds only the partitions
   the catalog recorded as changed (after one insert, a savepoint
   rollback, a pid reused after a rolled-back create, a merge), all of
   them after a reorganization, for every manager that publishes the
   table, with bookkeeping bounded by the partitions touched.
"""

import gc
import json
import operator
import random
import threading
import weakref

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import CinderellaConfig
from repro.query.query import AttributeQuery
from repro.query.snapshot import ShardScope, SnapshotManager, query_sig
from repro.server import CinderellaServer, ServerConfig, ServerThread
from repro.server.client import ServerClient
from repro.sql import execute as execute_sql
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.table.partitioned import CinderellaTable

from tests.conftest import WORKLOAD_SEED, row_multiset, served_rows

#: the probe queries every differential check replays
PROBES = (
    AttributeQuery(("attr0",)),
    AttributeQuery(("attr1", "attr2"), mode="any"),
    AttributeQuery(("common", "attr3"), mode="all"),
    AttributeQuery(("common", "renamed"), mode="any"),
)


def build_table(
    max_partition_size: float = 8.0, page_size: int = DEFAULT_PAGE_SIZE
) -> CinderellaTable:
    return CinderellaTable(
        CinderellaConfig(
            max_partition_size=max_partition_size,
            weight=0.3,
            use_synopsis_index=True,
        ),
        page_size=page_size,
    )


def freeze(result) -> list[dict]:
    """Deep-copy an ExecutionResult's rows so later mutation can't leak in."""
    return [dict(row) for row in result.rows]


def snapshot_rows(snapshot, query: AttributeQuery) -> list[dict]:
    return [dict(row) for row in snapshot.execute(query).rows]


#: two disjoint scopes and their union; eids are dense, so each is busy
SCOPE_A = ShardScope(4, frozenset({0, 2}))
SCOPE_B = ShardScope(4, frozenset({1}))
SCOPE_AB = ShardScope(4, SCOPE_A.shards | SCOPE_B.shards)


def naive_rows(snapshot, query: AttributeQuery, scope) -> list[dict]:
    """The scope's answer worked out by hand from the whole snapshot."""
    return [
        query.project(attributes)
        for eid, attributes in snapshot.entities()
        if (scope is None or eid % scope.n_shards in scope.shards)
        and query.matches(attributes)
    ]


# ----------------------------------------------------------------------
# 1. differential oracle at commit points
# ----------------------------------------------------------------------
class TestDifferentialOracle:
    def test_pinned_snapshots_match_the_oracle_at_their_commit_points(self):
        """Each held snapshot == the naive oracle frozen at its publish."""
        rng = random.Random(WORKLOAD_SEED)
        table = build_table()
        manager = SnapshotManager(retain=4)
        live: list[int] = []
        next_eid = 0
        history = []  # (snapshot, [oracle rows per probe])

        for _round in range(10):
            for _ in range(15):
                choice = rng.random()
                if choice < 0.6 or not live:
                    table.insert(
                        {
                            "common": next_eid % 3,
                            f"attr{rng.randrange(4)}": next_eid,
                        },
                        entity_id=next_eid,
                    )
                    live.append(next_eid)
                    next_eid += 1
                elif choice < 0.8:
                    eid = live[rng.randrange(len(live))]
                    table.update(
                        eid, {"renamed": eid, f"attr{eid % 4}": eid}
                    )
                else:
                    table.delete(live.pop(rng.randrange(len(live))))
            snapshot = manager.publish(table)
            oracle = [freeze(table.execute_naive(q)) for q in PROBES]
            assert snapshot.version_clock == table.catalog.version_clock
            history.append((snapshot, oracle))

        # post-history churn: merge, then keep writing past every snapshot
        table.merge_small_partitions(min_fill=0.9)
        for extra in range(50):
            table.insert({"attr0": extra, "late": extra}, entity_id=next_eid)
            next_eid += 1
        manager.publish(table)

        for snapshot, oracle in history:
            for query, expected in zip(PROBES, oracle):
                assert naive_rows(snapshot, query, None) == expected
                # scopes interleave on the same partition states: a chunk
                # keyed without its scope would answer one with another's
                for scope in (SCOPE_A, SCOPE_B, None, SCOPE_A, SCOPE_AB):
                    scoped = snapshot.scoped(scope)
                    wanted = naive_rows(snapshot, query, scope)
                    assert snapshot_rows(scoped, query) == wanted
                    # the served path (chunk cache, then the response
                    # cache on the repeat) must give the oracle's rows too
                    fragment, row_count, _ = scoped.serve_query(query)
                    again, again_count, from_cache = scoped.serve_query(query)
                    assert row_count == again_count == len(wanted)
                    assert from_cache
                    assert served_rows(fragment) == wanted
                    assert served_rows(again) == wanted
                in_a, in_b, in_ab = (
                    row_multiset(naive_rows(snapshot, query, scope))
                    for scope in (SCOPE_A, SCOPE_B, SCOPE_AB)
                )
                assert in_a + in_b == in_ab

    def test_older_snapshot_served_after_the_newest_leaves_its_chunk_alone(self):
        """Newest first, then an older held snapshot sharing its records
        (an older view of the page: served from its own chunk), then the
        newest again — whole and scoped, each with its own chunk."""
        table = build_table(max_partition_size=1000.0)
        manager = SnapshotManager(retain=4)
        query = AttributeQuery(("attr0", "common"), mode="any")
        sig = query_sig(query)
        for i in range(10):
            table.insert({"common": i % 3, "attr0": i}, entity_id=i)
        older = manager.publish(table)
        assert naive_rows(older, query, None) == freeze(table.execute_naive(query))
        for i in range(10, 25):
            table.insert({"common": i % 3, "attr0": i}, entity_id=i)
        newest = manager.publish(table)
        assert naive_rows(newest, query, None) == freeze(table.execute_naive(query))
        # the page grew: two views of it, sharing the ten older records
        (older_view,), (newest_view,) = older.views, newest.views
        (older_page,) = older_view._state.pages
        (page,) = newest_view._state.pages
        assert older_page is not page
        assert all(map(operator.is_, older_page.records, page.records[:10]))
        assert older_view.count == 10 and newest_view.count == 25

        for scope in (None, SCOPE_A):
            older_oracle = naive_rows(older, query, scope)
            newest_oracle = naive_rows(newest, query, scope)
            (scoped_view,) = newest.scoped(scope).views
            # shared, not re-decoded
            assert scoped_view._state is newest_view._state

            fragment, row_count, from_cache = newest.scoped(scope).serve_query(query)
            assert not from_cache and row_count == len(newest_oracle)
            assert served_rows(fragment) == newest_oracle
            entry = page.chunks[sig, scope]
            assert entry[1] == len(newest_oracle)

            fragment, row_count, from_cache = older.scoped(scope).serve_query(query)
            assert not from_cache and row_count == len(older_oracle)
            assert served_rows(fragment) == older_oracle
            assert page.chunks[sig, scope] is entry  # not clobbered
            assert older_page.chunks[sig, scope][1] == len(older_oracle)

            assert scoped_view.chunk(query, sig) == (entry[0], len(newest_oracle))
            assert served_rows(
                newest.scoped(scope).serve_query(query)[0]
            ) == newest_oracle
        assert len(page.chunks) == 2  # one chunk per (shape, scope)

    def test_two_interleaved_snapshots_disagree_exactly_by_the_batch(self):
        """The rows a later snapshot adds are exactly the committed delta."""
        table = build_table()
        manager = SnapshotManager(retain=4)
        for i in range(10):
            table.insert({"attr0": i}, entity_id=i)
        before = manager.publish(table)
        for i in range(10, 20):
            table.insert({"attr0": i}, entity_id=i)
        after = manager.publish(table)

        query = PROBES[0]
        seen_before = {eid for eid, _ in before.entities()}
        seen_after = {eid for eid, _ in after.entities()}
        assert seen_before == set(range(10))
        assert seen_after - seen_before == set(range(10, 20))
        assert len(snapshot_rows(before, query)) == 10
        assert len(snapshot_rows(after, query)) == 20


# ----------------------------------------------------------------------
# 2. properties: no torn reads, monotonic publication
# ----------------------------------------------------------------------
def _apply(table, model, next_eid, kind, attr, pick):
    """One model-checked mutation; returns the next free eid."""
    if kind == "insert" or not model:
        eid = next_eid
        attributes = {"common": eid % 2, f"attr{attr % 4}": eid}
        table.insert(attributes, entity_id=eid)
        model[eid] = dict(attributes)
        return next_eid + 1
    eid = sorted(model)[pick % len(model)]
    if kind == "update":
        attributes = {"renamed": pick, f"attr{attr % 4}": pick}
        table.update(eid, attributes)
        model[eid] = dict(attributes)
    else:
        table.delete(eid)
        del model[eid]
    return next_eid


OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "update", "delete"]),
        st.integers(0, 3),
        st.integers(0, 1_000),
    ),
    min_size=1,
    max_size=60,
)


class TestIsolationProperties:
    @given(ops=OPS, batch=st.integers(2, 9))
    @settings(max_examples=40)
    def test_no_snapshot_ever_exposes_a_torn_batch(self, ops, batch):
        """Snapshots published at batch boundaries see whole batches only."""
        table = build_table()
        manager = SnapshotManager(retain=3)
        model: dict[int, dict] = {}
        next_eid = 0
        published = []  # (held snapshot, model copy at its commit point)

        for index, (kind, attr, pick) in enumerate(ops):
            next_eid = _apply(table, model, next_eid, kind, attr, pick)
            if (index + 1) % batch == 0:
                snapshot = manager.publish(table)
                published.append(
                    (snapshot, {k: dict(v) for k, v in model.items()})
                )
        snapshot = manager.publish(table)
        published.append((snapshot, {k: dict(v) for k, v in model.items()}))

        for snapshot, expected in published:
            observed = {eid: dict(a) for eid, a in snapshot.entities()}
            assert observed == expected  # exactly its commit point, never torn

    @given(ops=OPS)
    @settings(max_examples=25)
    def test_publication_is_monotonic_in_id_and_version_clock(self, ops):
        table = build_table()
        manager = SnapshotManager(retain=3)
        model: dict[int, dict] = {}
        next_eid = 0
        snapshots = [manager.publish(table)]
        for kind, attr, pick in ops:
            next_eid = _apply(table, model, next_eid, kind, attr, pick)
            snapshots.append(manager.publish(table))
        ids = [s.snapshot_id for s in snapshots]
        clocks = [s.version_clock for s in snapshots]
        assert ids == sorted(set(ids))  # strictly increasing
        assert clocks == sorted(clocks)  # never goes backwards


# ----------------------------------------------------------------------
# 3. retention: the ring holds the latest, readers hold the rest
# ----------------------------------------------------------------------
class TestRetentionGC:
    def test_latest_is_never_collected_even_at_retain_one(self):
        """A one-deep ring holds only the latest snapshot: an older one
        nobody holds is garbage, and one a reader holds keeps serving
        its version."""
        table = build_table()
        manager = SnapshotManager(retain=1)
        table.insert({"attr0": 0}, entity_id=0)
        held = manager.publish(table)
        frozen = snapshot_rows(held, PROBES[0])
        table.insert({"attr0": 1}, entity_id=1)
        unheld = weakref.ref(manager.publish(table))
        for i in range(2, 6):
            table.insert({"attr0": i}, entity_id=i)
            latest = weakref.ref(manager.publish(table))
            gc.collect()
            assert latest() is manager.latest
            assert manager.latest.entity_count == i + 1
        assert unheld() is None
        assert held.entity_count == 1
        assert snapshot_rows(held, PROBES[0]) == frozen


# ----------------------------------------------------------------------
# 4. sixteen concurrent connections: the shed-rate gate
# ----------------------------------------------------------------------
class _WireWorker(threading.Thread):
    """70/30 insert/query mix with NO client-side retry — every shed
    the server issues is counted against the gate."""

    def __init__(self, index: int, address, ops: int):
        super().__init__(name=f"isolation-client-{index}")
        self.index = index
        self.address = address
        self.ops = ops
        self.applied = 0
        self.shed = 0
        self.rows_seen = 0
        self.failures: list[str] = []

    def run(self) -> None:
        rng = random.Random(WORKLOAD_SEED + self.index)
        base = self.index * 1_000_000
        try:
            with ServerClient(*self.address, check=False) as client:
                for step in range(self.ops):
                    if rng.random() < 0.7:
                        response = client.insert(
                            {
                                "common": self.index,
                                f"attr{rng.randrange(4)}": step,
                            },
                            eid=base + step,
                        )
                        if response.status == "applied":
                            self.applied += 1
                        elif response.status == "overloaded":
                            self.shed += 1
                        else:
                            self.failures.append(
                                f"insert -> {response.status}: {response.error}"
                            )
                    else:
                        response = client.query_response(
                            [f"attr{rng.randrange(4)}", "common"], mode="any"
                        )
                        if response.ok:
                            self.rows_seen += response.get("row_count", 0)
                        else:
                            self.failures.append(
                                f"query -> {response.status}: {response.error}"
                            )
        except Exception as err:  # surfaced by the main thread
            self.failures.append(f"{type(err).__name__}: {err}")


class TestConcurrentWireIsolation:
    def test_sixteen_connections_shed_below_two_percent(self):
        table = CinderellaTable(
            CinderellaConfig(
                max_partition_size=12.0, weight=0.3, use_synopsis_index=True
            )
        )
        server = CinderellaServer(
            table=table,
            config=ServerConfig(
                max_pending=512,
                batch_max=128,
                admission_target_latency_s=0.25,
                maintenance_interval_s=0.05,
                merge_min_fill=0.6,
            ),
        )
        with ServerThread(server=server) as harness:
            pool = [
                _WireWorker(index, harness.address, ops=120)
                for index in range(16)
            ]
            for worker in pool:
                worker.start()
            for worker in pool:
                worker.join(timeout=180)
                assert not worker.is_alive(), f"{worker.name} hung"
            with ServerClient(*harness.address) as client:
                stats = client.stats()

        failures = [f for worker in pool for f in worker.failures]
        assert failures == [], failures[:10]

        applied = sum(worker.applied for worker in pool)
        shed = sum(worker.shed for worker in pool)
        attempted = applied + shed
        assert attempted > 0
        shed_rate = shed / attempted
        assert shed_rate < 0.02, (
            f"shed {shed}/{attempted} = {shed_rate:.1%} at c=16 "
            f"(window ended at {stats['admission']['window']})"
        )

        # the reads really were snapshot reads
        assert stats["counters"]["snapshot_reads"] > 0
        assert stats["snapshots"]["published"] > 1

        # convergence: the final table holds exactly the acked inserts
        assert table.check_consistency() == []
        assert len(table.execute_naive(
            AttributeQuery(("common",))
        ).rows) == applied


# ----------------------------------------------------------------------
# 4b. pipelining: a burst answers exactly like one request at a time
# ----------------------------------------------------------------------
#: a small eid space, so inserts collide, updates and deletes miss, and
#: a read often sits right behind a write to the entity it matches
WIRE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.fixed_dictionaries({
                "eid": st.integers(0, 4),
                "attributes": st.dictionaries(
                    st.sampled_from(["a", "b", "c"]), st.integers(0, 9),
                    max_size=2,  # empty: refused before admission
                ),
            }),
        ),
        st.tuples(
            st.just("update"),
            st.fixed_dictionaries({
                "eid": st.integers(0, 4),
                "attributes": st.dictionaries(
                    st.sampled_from(["a", "b", "c"]), st.integers(0, 9),
                    min_size=1, max_size=2,
                ),
            }),
        ),
        st.tuples(
            st.just("delete"),
            st.fixed_dictionaries({"eid": st.integers(0, 4)}),
        ),
        st.tuples(
            st.just("query"),
            st.fixed_dictionaries({
                "attributes": st.lists(
                    st.sampled_from(["a", "b", "c"]),
                    min_size=1, max_size=2, unique=True,
                ),
            }),
        ),
    ),
    min_size=1,
    max_size=40,
)


def _answers(responses) -> list:
    """What a client can tell two runs apart by (a query's ``stats``
    count cache hits, which depend on how many snapshots were cut)."""
    return [
        (
            r.id, r.status, (r.error or {}).get("code"),
            {k: v for k, v in r.fields.items() if k != "stats"},
        )
        for r in responses
    ]


class TestPipelinedDifferential:
    @given(ops=WIRE_OPS)
    @settings(max_examples=30)
    def test_a_burst_answers_like_one_request_at_a_time(self, ops):
        """Order, read-your-writes and every refusal survive pipelining:
        response for response, a burst on one connection is what the
        same sequence yields sent with a round trip each."""
        config = ServerConfig(maintenance_interval_s=0, batch_max=8)
        with ServerThread(
            server=CinderellaServer(table=build_table(), config=config)
        ) as harness:
            with ServerClient(*harness.address) as client:
                burst = client.pipeline(ops)
        with ServerThread(
            server=CinderellaServer(table=build_table(), config=config)
        ) as harness:
            with ServerClient(*harness.address, check=False) as client:
                one_by_one = [client.request(op, **fields) for op, fields in ops]
        assert _answers(burst) == _answers(one_by_one)


# ----------------------------------------------------------------------
# 5. version-clock edges: reorganization and merge/split cascades
# ----------------------------------------------------------------------
class TestVersionClockEdges:
    def test_pinned_snapshot_survives_reorganization_clock_adoption(self):
        table = build_table()
        for i in range(40):
            table.insert(
                {"common": i % 2, f"attr{i % 4}": i}, entity_id=i
            )
        manager = SnapshotManager(retain=4)
        held = manager.publish(table)
        frozen_entities = {eid: dict(a) for eid, a in held.entities()}
        frozen_rows = [snapshot_rows(held, q) for q in PROBES]

        clock_before = table.catalog.version_clock
        table.reorganize()
        # adopt_version_clock: the rebuilt catalog's clock strictly
        # succeeds the replaced one — publication stays monotonic
        assert table.catalog.version_clock > clock_before
        after = manager.publish(table)
        assert after.snapshot_id > held.snapshot_id
        assert after.version_clock > held.version_clock

        # the held snapshot is bit-identical to its commit point
        assert {eid: dict(a) for eid, a in held.entities()} == frozen_entities
        assert [snapshot_rows(held, q) for q in PROBES] == frozen_rows
        # and the post-reorganization snapshot agrees with the oracle
        for query in PROBES:
            assert snapshot_rows(after, query) == freeze(
                table.execute_naive(query)
            )

    def test_pinned_snapshot_outlives_a_merge_and_split_cascade(self):
        table = build_table(max_partition_size=6.0)
        for i in range(60):  # same few masks: partitions fill and split
            table.insert(
                {"common": 1, f"attr{i % 3}": i}, entity_id=i
            )
        splits_before = table.partitioner.split_count
        assert splits_before > 0

        manager = SnapshotManager(retain=2)
        held = manager.publish(table)
        frozen_entities = {eid: dict(a) for eid, a in held.entities()}

        # hollow out, merge, then grow back through fresh splits
        for i in range(0, 60, 2):
            table.delete(i)
        table.merge_small_partitions(min_fill=0.9)
        for i in range(100, 160):
            table.insert({"common": 1, f"attr{i % 3}": i}, entity_id=i)
        assert table.partitioner.split_count > splits_before
        for _ in range(4):  # several publishes: past the ring's depth
            manager.publish(table)

        assert {eid: dict(a) for eid, a in held.entities()} == frozen_entities
        latest = manager.latest
        for query in PROBES:
            assert snapshot_rows(latest, query) == freeze(
                table.execute_naive(query)
            )

        # the ring let go of it publishes ago: once its reader does
        # too, nothing keeps it
        released = weakref.ref(held)
        del held
        gc.collect()
        assert released() is None


# ----------------------------------------------------------------------
# 6. successor states: borrowed, proportional, never chained
# ----------------------------------------------------------------------
SQL_PROBES = (
    "SELECT attr0, common FROM t WHERE attr0 IS NOT NULL",
    "SELECT * FROM t WHERE common = 1 OR renamed IS NOT NULL",
)
ALL_SCOPES = (None, SCOPE_A, SCOPE_B, SCOPE_AB)


def serve_everything(snapshot) -> None:
    """Serve every probe through every scope: decodes and renders the
    whole snapshot, so the next publish has everything to lend."""
    for query in PROBES:
        for scope in ALL_SCOPES:
            snapshot.scoped(scope).serve_query(query)


def count_page_views(monkeypatch) -> list[int]:
    """Count the page views built from here on (one counter cell)."""
    import repro.storage.page as page_module

    built = [0]

    class CountingPageView(page_module.PageView):
        __slots__ = ()

        def __init__(self, records) -> None:
            built[0] += 1
            super().__init__(records)

    monkeypatch.setattr(page_module, "PageView", CountingPageView)
    return built


def count_states(monkeypatch) -> list[int]:
    """Count the partition states built from here on (one counter cell)."""
    import repro.query.snapshot as snapshot_module

    built = [0]
    init = snapshot_module._PartitionState.__init__

    def counting_init(self, *args) -> None:
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(snapshot_module._PartitionState, "__init__", counting_init)
    return built


def sql_rows(sql: str, snapshot) -> list[dict]:
    return [dict(row) for row in execute_sql(sql, snapshot).rows]


class TestSuccessorStates:
    def test_successors_serve_like_a_fresh_publish(self):
        """Seeded inserts, in-place and moving updates, deletes, splits
        and merges: at every publish the latest snapshot — its rebuilt
        states borrowing from the ones it replaced — answers every probe
        byte for byte like a fresh manager's first publish of the same
        table, and every held older snapshot keeps its commit point."""
        self.serve_like_a_fresh_publish(DEFAULT_PAGE_SIZE)

    def test_multi_page_successors_serve_like_a_fresh_publish(self):
        """The same workload on 32-byte pages (a record or two each), so
        rebuilt states splice their predecessors' unchanged pages with
        the pages they re-read."""
        pages = self.serve_like_a_fresh_publish(32)
        assert max(pages) > 2

    def serve_like_a_fresh_publish(self, page_size: int) -> list[int]:
        """Run the differential; the largest heap's page count per batch."""
        rng = random.Random(WORKLOAD_SEED)
        table = build_table(max_partition_size=6.0, page_size=page_size)
        pages: list[int] = []
        manager = SnapshotManager(retain=3)
        live: list[int] = []
        next_eid = 0
        seen = {"in_place": 0, "moved": 0, "deletes": 0, "merged": 0}
        held = []  # (snapshot, {(probe, scope): commit-point rows})
        splits_before = table.partitioner.split_count

        for batch in range(16):
            for _ in range(8):
                choice = rng.random()
                if choice < 0.5 or len(live) < 4:
                    table.insert(
                        {
                            "common": next_eid % 3,
                            f"attr{rng.randrange(3)}": next_eid,
                        },
                        entity_id=next_eid,
                    )
                    live.append(next_eid)
                    next_eid += 1
                elif choice < 0.65:  # same attributes: stays put
                    eid = live[rng.randrange(len(live))]
                    attributes = dict(table.get(eid).attributes, common=7)
                    outcome = table.update(eid, attributes)
                    seen["in_place" if outcome.in_place else "moved"] += 1
                elif choice < 0.8:  # new attributes: may move
                    eid = live[rng.randrange(len(live))]
                    outcome = table.update(
                        eid, {"renamed": eid, f"attr{eid % 3}": eid}
                    )
                    seen["in_place" if outcome.in_place else "moved"] += 1
                else:
                    table.delete(live.pop(rng.randrange(len(live))))
                    seen["deletes"] += 1
            if batch % 5 == 4:
                report = table.merge_small_partitions(min_fill=0.9)
                seen["merged"] += len(report.moves)
            latest = manager.publish(table)
            fresh = SnapshotManager().publish(table)
            pages.append(
                max(table.heap_of(p.pid).page_count for p in table.catalog)
            )
            for query in PROBES:
                for scope in ALL_SCOPES:
                    assert latest.scoped(scope).serve_query(query) == (
                        fresh.scoped(scope).serve_query(query)
                    )
                    assert latest.scoped(scope).execute(query).rows == (
                        fresh.scoped(scope).execute(query).rows
                    )
            for sql in SQL_PROBES:
                for scope in ALL_SCOPES:
                    assert sql_rows(sql, latest.scoped(scope)) == sql_rows(
                        sql, fresh.scoped(scope)
                    )
            if batch % 2 == 0:
                oracle = {
                    (query, scope): naive_rows(latest, query, scope)
                    for query in PROBES for scope in ALL_SCOPES
                }
                for query in PROBES:
                    assert oracle[query, None] == freeze(table.execute_naive(query))
                held.append((latest, oracle))
            for snapshot, oracle in held:
                for (query, scope), expected in oracle.items():
                    assert naive_rows(snapshot, query, scope) == expected
                    fragment = snapshot.scoped(scope).serve_query(query)[0]
                    assert served_rows(fragment) == expected

        assert table.partitioner.split_count > splits_before
        assert seen["merged"] > 0 and seen["deletes"] > 0
        assert seen["in_place"] > 0 and seen["moved"] > 0
        return pages

    #: the shapes the proportionality pin serves
    SHAPES = (
        AttributeQuery(("attr0",)),
        AttributeQuery(("attr1", "common"), mode="all"),
        AttributeQuery(("common", "other"), mode="any"),
    )

    def counted(self, monkeypatch):
        """Count record decodes (by entity id) and row renders."""
        import repro.query.snapshot as snapshot_module

        decoded: list[int] = []
        renders = [0]
        decode, dumps = snapshot_module.deserialize_record, json.dumps

        def counting_decode(data, dictionary):
            eid, attributes = decode(data, dictionary)
            decoded.append(eid)
            return eid, attributes

        def counting_dumps(*args, **kwargs):
            renders[0] += 1
            return dumps(*args, **kwargs)

        monkeypatch.setattr(snapshot_module, "deserialize_record", counting_decode)
        monkeypatch.setattr(json, "dumps", counting_dumps)
        return decoded, renders

    def serve_counted(self, snapshot, decoded, renders) -> list[int]:
        """Serve every shape once; the renders each shape cost."""
        del decoded[:]
        per_shape = []
        for query in self.SHAPES:
            renders[0] = 0
            fragment, row_count, from_cache = snapshot.serve_query(query)
            assert not from_cache
            assert served_rows(fragment) == naive_rows(snapshot, query, None)
            per_shape.append(renders[0])
        return per_shape

    def test_re_serving_costs_the_records_changed(self, monkeypatch):
        """One 400-record partition served for three shapes: after an
        in-place update, a delete and a moving update — each published —
        the next serve decodes and renders at most the one changed
        record (the whole partition before successor states)."""
        table = build_table(max_partition_size=100_000.0)
        for i in range(400):
            table.insert({"common": i % 3, "attr0": i, "attr1": i}, entity_id=i)
        assert len(table.catalog) == 1
        manager = SnapshotManager()
        decoded, renders = self.counted(monkeypatch)
        assert self.serve_counted(manager.publish(table), decoded, renders) == [
            400, 400, 400
        ]
        assert len(decoded) == 400

        in_place = table.update(5, {"common": 7, "attr0": -5, "attr1": -5})
        assert in_place.in_place
        assert max(self.serve_counted(manager.publish(table), decoded, renders)) <= 1
        assert decoded == [5]

        table.delete(9)
        assert self.serve_counted(manager.publish(table), decoded, renders) == [0, 0, 0]
        assert decoded == []

        moving = table.update(11, {"other": 11})
        assert not moving.in_place and len(table.catalog) == 2
        assert max(self.serve_counted(manager.publish(table), decoded, renders)) <= 1
        assert decoded == [11]

        # the same three changes with no serve between them: borrowing
        # flows through the successors nobody read
        table.update(6, {"common": 8, "attr0": -6, "attr1": -6})
        manager.publish(table)
        table.delete(10)
        manager.publish(table)
        table.update(12, {"other": 12})
        assert max(self.serve_counted(manager.publish(table), decoded, renders)) <= 2
        assert sorted(decoded) == [6, 12]  # two records changed

    def test_a_rebuild_reads_only_the_page_that_changed(self, monkeypatch):
        """One 400-record partition on 17 pages of 512 bytes: the
        publish after an in-place update builds one new page view, for
        the page the update changed, and shares the other 16 by identity
        (the whole heap was read before page-granular rebuilds); it
        charges no I/O and serves what a fresh publish serves."""
        table = build_table(max_partition_size=100_000.0, page_size=512)
        for i in range(400):
            table.insert({"common": i % 3, "attr0": i, "attr1": i}, entity_id=i)
        (partition,) = table.catalog
        heap = table.heap_of(partition.pid)
        assert heap.page_count == 17
        manager = SnapshotManager()
        for query in self.SHAPES:
            manager.publish(table).serve_query(query)
        (view,) = manager.latest.views
        pages_before = view._state.pages

        assert table.update(205, {"common": 7, "attr0": -5, "attr1": -5}).in_place
        built = count_page_views(monkeypatch)
        before = table.io.snapshot()
        latest = manager.publish(table)
        (view,) = latest.views
        pages = view._state.pages
        assert built == [1]
        assert len(pages) == len(pages_before) == 17
        new = [page for page, old in zip(pages, pages_before) if page is not old]
        assert len(new) == 1 and any(
            stored.eid == 205 for stored in new[0].records
        )
        assert table.io == before
        fresh = SnapshotManager().publish(table)
        for query in self.SHAPES:
            assert latest.serve_query(query)[:2] == fresh.serve_query(query)[:2]

    def test_a_shape_is_pruned_once_per_layout(self, monkeypatch):
        """Publishes that keep every partition's pid and mask share the
        plan cache: in-place updates re-prune nothing, a changed mask
        prunes again."""
        import repro.query.snapshot as snapshot_module

        calls = [0]
        prune = snapshot_module.prune

        def counting_prune(*args):
            calls[0] += 1
            return prune(*args)

        monkeypatch.setattr(snapshot_module, "prune", counting_prune)
        table = build_table(max_partition_size=100_000.0)
        for i in range(20):
            table.insert({"common": i % 3, "attr0": i}, entity_id=i)
        manager = SnapshotManager()
        query = self.SHAPES[0]
        for eid in range(3):
            assert table.update(eid, {"common": 9, "attr0": eid}).in_place
            manager.publish(table).serve_query(query)
        assert calls[0] == 1
        table.insert({"common": 1, "attr1": 99}, entity_id=99)  # widens the mask
        manager.publish(table).serve_query(query)
        assert calls[0] == 2

    def test_a_split_decodes_none_of_the_records_it_moved(self, monkeypatch):
        """Inserts into a served partition until one splits it: the
        partitions the split made serve the moved records from what the
        split source had decoded and rendered."""
        table = build_table(max_partition_size=60.0)
        manager = SnapshotManager()
        decoded, renders = self.counted(monkeypatch)
        self.serve_counted(manager.publish(table), decoded, renders)
        for eid in range(200):
            outcome = table.insert(
                {"common": eid % 3, f"attr{eid % 2}": eid}, entity_id=eid
            )
            per_shape = self.serve_counted(manager.publish(table), decoded, renders)
            assert decoded == [eid]  # just the new record
            assert max(per_shape) <= 1
            if outcome.splits:
                moved = {move.eid for move in outcome.moves} - {eid}
                assert len(moved) > 1
                break
        else:
            raise AssertionError("no insert split the partition")

    def test_a_reorganization_decodes_none_of_the_records_it_moved(
        self, monkeypatch
    ):
        """A reorganization carries the stored records themselves into
        its new heaps: after it, a publish plus serve decodes no record
        an earlier serve had decoded, and serves what a fresh publish of
        the reorganized table serves, byte for byte."""
        table = build_table(max_partition_size=150.0)
        for i in range(400):
            table.insert(
                {"common": i % 3, f"attr{i % 2}": i, f"other{i % 5}": i},
                entity_id=i,
            )
        manager = SnapshotManager()
        decoded, renders = self.counted(monkeypatch)
        self.serve_counted(manager.publish(table), decoded, renders)
        assert sorted(decoded) == list(range(400))

        def heap_ids():
            return {table.heap_of(p.pid).file_id for p in table.catalog}

        heaps_before = heap_ids()
        table.reorganize(order="size")
        assert heap_ids().isdisjoint(heaps_before)  # every state rebuilt
        assert table.check_consistency() == []
        latest = manager.publish(table)
        del decoded[:]
        served = [latest.serve_query(query)[:2] for query in self.SHAPES]
        assert decoded == []
        fresh = SnapshotManager().publish(table)
        assert served == [fresh.serve_query(query)[:2] for query in self.SHAPES]

    def test_a_replaced_state_is_not_kept_alive_by_its_successors(self):
        """Borrowing never chains: two rebuilds later, with no reader and
        the retention window past, the first state is garbage."""
        table = build_table(max_partition_size=100_000.0)
        for i in range(50):
            table.insert({"common": i % 3, "attr0": i}, entity_id=i)
        manager = SnapshotManager(retain=2)
        snapshot = manager.publish(table)
        serve_everything(snapshot)
        (view,) = snapshot.views
        first = weakref.ref(view._state)
        del snapshot, view
        for eid in (1, 2):  # a delete rebuilds the one partition
            table.delete(eid)
            snapshot = manager.publish(table)
            serve_everything(snapshot)
            assert snapshot.views[0]._state is not first()
        del snapshot
        for i in range(2):  # the ring's depth
            table.insert({"common": 0, "attr0": 100 + i}, entity_id=100 + i)
            serve_everything(manager.publish(table))
        gc.collect()
        assert first() is None


def versions_moved(table, snapshot) -> set[int]:
    """The live pids whose version differs from *snapshot*'s view of
    them (a pid the snapshot lacks counts as moved)."""
    catalog = table.catalog
    seen = {view.pid: view.version for view in snapshot.views}
    return {
        pid for pid in catalog.partition_ids()
        if seen.get(pid) != catalog.version_of(pid)
    }


def assert_serves_the_oracle(table, snapshot) -> None:
    for query in PROBES:
        expected = freeze(table.execute_naive(query))
        assert snapshot_rows(snapshot, query) == expected
        assert served_rows(snapshot.serve_query(query)[0]) == expected


class TestPublishVisitsOnlyWhatChanged:
    """A publish rebuilds the partitions the catalog recorded as changed
    since the manager last took its changes, reuses every other view,
    and serves exactly what the naive oracle reads from the heaps."""

    @staticmethod
    def wide_table(partitions: int = 210) -> CinderellaTable:
        """One partition per entity: each has an attribute of its own."""
        table = build_table()
        for eid in range(partitions):
            table.insert({f"own{eid}": eid, "common": eid % 3}, entity_id=eid)
        assert len(table.catalog) == partitions
        return table

    def test_one_insert_builds_one_state_and_at_most_one_page(self, monkeypatch):
        table = self.wide_table()
        manager = SnapshotManager()
        before = manager.publish(table)
        states, pages = count_states(monkeypatch), count_page_views(monkeypatch)
        outcome = table.insert({"own7": -7, "common": 1}, entity_id=1000)
        assert not outcome.splits and len(table.catalog) == 210
        latest = manager.publish(table)
        assert states == [1] and pages[0] <= 1
        kept = [
            new for new, old in zip(latest.views, before.views) if new is old
        ]
        assert len(kept) == 209  # every other pid: the previous view itself
        assert_serves_the_oracle(table, latest)

    def test_a_reorganization_rebuilds_every_partition(self, monkeypatch):
        table = self.wide_table(40)
        manager = SnapshotManager()
        manager.publish(table)
        table.reorganize(order="size")
        states = count_states(monkeypatch)
        latest = manager.publish(table)
        assert states == [len(table.catalog)]
        assert_serves_the_oracle(table, latest)

    def test_a_savepoint_rollback_in_a_batch_rebuilds_only_what_it_touched(
        self, monkeypatch
    ):
        """A group commit's shape: one transaction, a savepoint per
        write, and a write that crashes mid-way rolled back to its
        savepoint while the writes around it stand."""
        from repro.txn.crash import CrashInjector, MidOperationCrash

        table = self.wide_table()
        manager = SnapshotManager()
        before = manager.publish(table)
        txn = table.catalog.begin_transaction()
        table.insert({"own3": -3, "common": 0}, entity_id=1000)
        savepoint = txn.savepoint()
        table.partitioner.crash_hook = CrashInjector(crash_at=0).reached
        try:
            table.insert({"own5": -5, "common": 0}, entity_id=1001)
        except MidOperationCrash:
            txn.rollback_to(savepoint)
        else:
            raise AssertionError("the injected crash did not fire")
        table.partitioner.crash_hook = None
        table.update(9, {"own9": -9, "common": 2})
        txn.commit()
        # the partitions of entity 3 (its twin was added), of entity 5
        # (its twin's add was rolled back) and of the updated entity 9
        moved = versions_moved(table, before)
        assert moved == {table.catalog.partition_of(eid) for eid in (3, 5, 9)}
        states = count_states(monkeypatch)
        latest = manager.publish(table)
        assert states == [len(moved)] and len(moved) == 3
        assert table.check_consistency() == []
        assert_serves_the_oracle(table, latest)

    def test_a_pid_reused_after_a_rolled_back_create_is_rebuilt(
        self, monkeypatch
    ):
        from repro.txn.crash import CrashInjector, MidOperationCrash

        table = self.wide_table()
        manager = SnapshotManager()
        manager.publish(table)
        for publish_between in (True, False):
            reused = table.catalog.next_partition_id
            txn = table.catalog.begin_transaction()
            table.partitioner.crash_hook = CrashInjector(crash_at=0).reached
            try:
                table.insert({"fresh": 1}, entity_id=2000)
            except MidOperationCrash:
                txn.rollback()
            else:
                raise AssertionError("the injected crash did not fire")
            table.partitioner.crash_hook = None
            assert table.catalog.next_partition_id == reused
            if publish_between:
                assert_serves_the_oracle(table, manager.publish(table))
            states = count_states(monkeypatch)
            table.insert({"fresh": 1}, entity_id=2000)
            assert table.catalog.partition_of(2000) == reused
            latest = manager.publish(table)
            assert states == [1]
            assert [e for e, _ in latest.view_of(reused).entities()] == [2000]
            assert_serves_the_oracle(table, latest)
            table.delete(2000)  # drops the pid again for the next round
            assert reused not in table.catalog
            latest = manager.publish(table)
            assert all(view.pid != reused for view in latest.views)
            assert_serves_the_oracle(table, latest)

    def test_a_merge_rebuilds_only_the_partitions_it_touched(self, monkeypatch):
        """Delete-heavy fragments merge (their sources dropped) beside a
        group of partitions the merge leaves alone."""
        table = CinderellaTable(CinderellaConfig(max_partition_size=10, weight=0.4))
        for eid in range(60):
            table.insert(
                {"common": 1, f"attr{eid % 2}": eid, f"g{eid % 6}": 1},
                entity_id=eid,
            )
        for eid in range(100, 130):
            table.insert({f"own{eid % 10}": eid}, entity_id=eid)
        for eid in range(60):
            if eid % 5:
                table.delete(eid)
        manager = SnapshotManager()
        before = manager.publish(table)
        report = table.merge_small_partitions(min_fill=0.5)
        assert report.dropped_partitions
        moved = versions_moved(table, before)
        states = count_states(monkeypatch)
        latest = manager.publish(table)
        assert states == [len(moved)] and 0 < len(moved) < len(table.catalog)
        assert {view.pid for view in latest.views} == set(
            table.catalog.partition_ids()
        )
        for view in latest.views:
            if view.pid not in moved:
                assert view is before.view_of(view.pid)
        assert_serves_the_oracle(table, latest)

    def test_every_manager_publishing_a_table_sees_every_change(self):
        """The table's own manager, a node-style manager and a third one
        publish the same table in turn, with writes between: each sees
        every change, including the ones another manager took."""
        rng = random.Random(WORKLOAD_SEED)
        table = build_table()
        first, second = SnapshotManager(), SnapshotManager(retain=2)
        live: list[int] = []
        for step in range(60):
            for _ in range(3):
                if not live or rng.random() < 0.6:
                    eid = 100 + step * 3 + len(live)
                    while eid in table:
                        eid += 1
                    table.insert(
                        {"common": eid % 3, f"attr{rng.randrange(4)}": eid},
                        entity_id=eid,
                    )
                    live.append(eid)
                elif rng.random() < 0.5:
                    table.update(
                        live[rng.randrange(len(live))],
                        {"renamed": step, f"attr{rng.randrange(4)}": step},
                    )
                else:
                    table.delete(live.pop(rng.randrange(len(live))))
            turn = step % 3
            if turn == 0:
                assert_serves_the_oracle(table, first.publish(table))
            elif turn == 1:
                assert_serves_the_oracle(table, second.publish(table))
            else:
                for query in PROBES:
                    assert table.execute(query).rows == (
                        table.execute_naive(query).rows
                    )
        assert table.partitioner.split_count > 0

    def test_the_changed_pids_stay_bounded_without_a_read(self):
        """10,000 writes with no publish between them: the catalog keeps
        one entry per partition they touched, not one per write."""
        table = build_table(max_partition_size=1000.0)
        for eid in range(30):
            table.insert({f"own{eid}": eid}, entity_id=eid)
        assert len(table.catalog) == 30
        manager = SnapshotManager()
        manager.publish(table)
        rng = random.Random(WORKLOAD_SEED)
        touched = set()
        for i in range(10_000):
            eid = rng.randrange(30)
            if i % 2:
                table.update(eid, {f"own{eid}": i})
            else:
                table.insert({f"own{eid}": i}, entity_id=10_000 + i)
                table.delete(10_000 + i)
            touched.add(table.catalog.partition_of(eid))
        assert len(table.catalog) == 30
        assert table.catalog._changed == touched
        assert len(touched) <= 30
        assert_serves_the_oracle(table, manager.publish(table))
        assert table.catalog._changed == set()
