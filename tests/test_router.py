"""The routing tier end to end: placement, routed writes, scatter reads.

The end-to-end tests drive a real :class:`ClusterHarness` — WAL-backed
serving nodes behind a router, all over real sockets — through the same
blocking client the single-node tests use: the router speaks the same
protocol, so the client cannot tell the difference.  That transparency
is itself under test.
"""

import importlib.util
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.router import (
    ROUTER_EID_BASE,
    ClusterHarness,
    NodeAddress,
    PlacementMap,
)
from repro.server import ServerConfig, ServerThread
from repro.server.client import ServerClient, ServerError

from tests.conftest import wait_until

REPO = Path(__file__).resolve().parent.parent


def _nodes(count):
    return [
        NodeAddress(name=f"node{i}", host="127.0.0.1", port=9000 + i)
        for i in range(count)
    ]


class TestPlacementMap:
    def test_defaults_to_four_shards_per_node(self):
        placement = PlacementMap(_nodes(3))
        assert placement.n_shards == 12

    def test_replication_factor_capped_at_node_count(self):
        placement = PlacementMap(_nodes(2), replication_factor=5)
        assert placement.replication_factor == 2

    def test_replicas_rotate_primary_first(self):
        placement = PlacementMap(_nodes(3), n_shards=6, replication_factor=2)
        names = [node.name for node in placement.replicas(4)]
        assert names == ["node1", "node2"]  # nodes[(4+j) % 3]

    def test_every_node_carries_equal_primaries(self):
        placement = PlacementMap(_nodes(3), n_shards=12, replication_factor=2)
        primaries = [placement.replicas(s)[0].name for s in placement.shards]
        assert all(primaries.count(f"node{i}") == 4 for i in range(3))

    def test_shard_of_is_modulo(self):
        placement = PlacementMap(_nodes(2), n_shards=8)
        assert placement.shard_of(21) == 5
        assert placement.replicas_of_eid(21) == placement.replicas(5)

    def test_shards_on_covers_replicas_too(self):
        placement = PlacementMap(_nodes(3), n_shards=6, replication_factor=2)
        on_node1 = placement.shards_on("node1")
        # primary of shards 1, 4; secondary of shards 0, 3
        assert on_node1 == [0, 1, 3, 4]

    @given(
        n_nodes=st.integers(1, 8),
        n_shards=st.integers(1, 48),
        rf=st.integers(1, 5),
        eids=st.lists(st.integers(0, 2**62), max_size=8),
    )
    def test_placement_properties(self, n_nodes, n_shards, rf, eids):
        """For any shape: copies on distinct nodes, the factor capped by
        the node count, primaries balanced, every copy counted."""
        placement = PlacementMap(_nodes(n_nodes), n_shards, rf)
        names = [f"node{i}" for i in range(n_nodes)]
        replica_names = {
            shard: [node.name for node in placement.replicas(shard)]
            for shard in placement.shards
        }
        for shard, copies in replica_names.items():
            assert len(copies) == min(rf, n_nodes)
            assert len(set(copies)) == len(copies)
            assert copies[0] == names[shard % n_nodes]  # primary first
        primaries = [copies[0] for copies in replica_names.values()]
        per_node = [primaries.count(name) for name in names]
        assert max(per_node) - min(per_node) <= 1
        for name in names:
            assert placement.shards_on(name) == [
                shard for shard, copies in replica_names.items()
                if name in copies
            ]
        for eid in eids:
            assert placement.shard_of(eid) in placement.shards
            assert placement.replicas_of_eid(eid) == placement.replicas(
                placement.shard_of(eid)
            )

    def test_duplicate_names_rejected(self):
        nodes = _nodes(2) + [_nodes(1)[0]]
        with pytest.raises(ValueError, match="duplicate"):
            PlacementMap(nodes)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            PlacementMap([])
        with pytest.raises(ValueError):
            PlacementMap(_nodes(1), replication_factor=0)
        with pytest.raises(ValueError):
            PlacementMap(_nodes(1)).replicas(99)

    def test_nodes_of_lookup(self):
        placement = PlacementMap(_nodes(2))
        assert placement.nodes_of("node1").port == 9001
        with pytest.raises(KeyError):
            placement.nodes_of("ghost")

    def test_as_dict_is_plain_data(self):
        document = PlacementMap(_nodes(2), n_shards=4).as_dict()
        assert document["n_shards"] == 4
        assert [n["name"] for n in document["nodes"]] == ["node0", "node1"]
        assert document["shards"]["3"] == ["node1"]


@pytest.fixture()
def cluster(tmp_path):
    with ClusterHarness(tmp_path, n_nodes=3, replication_factor=2) as harness:
        yield harness


@pytest.fixture()
def client(cluster):
    with cluster.client() as connected:
        yield connected


class TestRoutedBasics:
    def test_ping_identifies_the_router(self, client):
        response = client.ping(payload={"k": 1})
        assert response.ok
        assert response.get("payload") == {"k": 1}
        assert response.get("router") == "router"

    def test_insert_reports_shard_and_replicas(self, cluster, client):
        response = client.insert({"a": 1}, eid=17)
        assert response.status == "applied"
        assert response.get("eid") == 17
        assert response.get("shard") == cluster.placement.shard_of(17)
        assert response.get("replicas_acked") == 2
        assert response.get("replicas_missed") == 0

    def test_router_assigned_eids_cannot_collide_with_client_ids(self, client):
        first = client.insert({"a": 1}).get("eid")
        second = client.insert({"a": 2}).get("eid")
        assert first >= ROUTER_EID_BASE
        assert second == first + 1

    def test_bad_entity_id_refused(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.request("insert", attributes={"a": 1}, eid=-3)
        assert excinfo.value.code == "invalid_entity_id"

    def test_unstorable_entity_id_refused_and_reads_keep_working(self, client):
        client.insert({"a": 1}, eid=1)
        with pytest.raises(ServerError) as excinfo:
            client.request("insert", attributes={"a": 2}, eid=2**70)
        assert excinfo.value.status == "rejected"
        assert excinfo.value.code == "invalid_entity_id"
        assert client.query(["a"]) == [{"a": 1}]

    def test_update_delete_cycle_through_the_router(self, client):
        eid = client.insert({"name": "S120", "resolution": 12.1}).get("eid")
        client.update(eid, {"name": "S120", "zoom": 5})
        assert client.query(["zoom"]) == [{"zoom": 5}]
        client.delete(eid)
        assert client.query(["zoom"]) == []

    def test_scatter_query_returns_each_row_exactly_once(self, client):
        # rf=2: every row lives on two nodes; an unscoped scatter would
        # double-count — the shard_filter scoping must not
        for i in range(60):
            client.insert({"a": i, "uid": f"u{i}"}, eid=i)
        response = client.query_response(["uid"])
        assert response.ok
        assert response.get("row_count") == 60
        uids = {row["uid"] for row in response.get("rows")}
        assert len(uids) == 60
        assert response.get("shards_answered") == response.get("shards_total")

    def test_repeated_routed_query_hits_the_nodes_response_caches(
        self, cluster, client
    ):
        """A routed read carries a shard_filter; it is served from the
        same caches as an unscoped one."""
        for i in range(40):
            client.insert({"a": i}, eid=i)
        client.maintain()  # a pass now, so none publishes between the reads

        def hits():
            return sum(
                node.server.counters.snapshot_response_cache_hits
                for node in cluster.nodes.values()
            )

        assert hits() == 0
        first = client.query_response(["a"])
        again = client.query_response(["a"])
        assert hits() > 0
        assert again.get("row_count") == first.get("row_count") == 40
        assert first.get("stats")["cache_misses"] > 0
        assert again.get("stats")["cache_hits"] > 0

    def test_query_stats_are_summed_across_shards(self, client):
        for i in range(20):
            client.insert({"a": i}, eid=i)
        response = client.query_response(["a"])
        assert response.get("row_count") == 20
        stats = response.get("stats")
        # summed over the per-node answers: every replica's partitions
        # were scanned at least once
        assert stats["partitions_scanned"] >= 1
        assert stats["partitions_total"] >= stats["partitions_scanned"]

    def test_sql_scatter(self, client):
        for i in range(30):
            client.insert({"weight": i * 10, "name": f"p{i}"}, eid=i)
        response = client.sql(
            "SELECT name FROM universalTable WHERE weight > 250"
        )
        assert response.ok
        assert response.get("row_count") == 4

    def test_logical_rejection_propagates_untouched(self, client):
        client.insert({"a": 1}, eid=5)
        with pytest.raises(ServerError) as excinfo:
            client.insert({"b": 2}, eid=5)
        assert excinfo.value.status == "rejected"
        assert excinfo.value.code == "duplicate_entity"

    def test_sql_syntax_error_propagates_from_the_shards(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.sql("SELEKT nope")
        assert excinfo.value.status == "bad_request"
        assert excinfo.value.code == "sql_syntax"

    def test_maintain_fans_out_to_every_node(self, client):
        response = client.maintain()
        assert response.ok
        assert set(response.get("nodes")) == {"node0", "node1", "node2"}

    def test_stats_snapshot_shape(self, client):
        client.insert({"a": 1})
        stats = client.stats()
        assert stats["router"] == "router"
        assert stats["placement"]["replication_factor"] == 2
        assert set(stats["health"]) == {"node0", "node1", "node2"}
        assert stats["counters"]["writes_routed"] == 1
        assert stats["counters"]["availability"] == 1.0
        assert "heat" not in stats  # federation is opt-in

    def test_stats_heat_federates_from_adapting_nodes(self, tmp_path):
        from repro.adapt import AdaptationConfig

        config = ServerConfig(
            maintenance_interval_s=0.05, adapt_every=1,
            adaptation=AdaptationConfig(min_observations=4, cooldown_s=0.0),
        )
        with ClusterHarness(
            tmp_path, n_nodes=2, replication_factor=1, server_config=config
        ) as harness:
            with harness.client() as client:
                for i in range(16):
                    client.insert({"a": i}, eid=i)
                client.query(["a"])
                heat = client.request("stats", heat=True).fields["heat"]
                assert heat  # every node saw writes
                assert {key.split("/")[0] for key in heat} <= {
                    "node0", "node1"
                }
                for doc in heat.values():
                    assert set(doc) == {"reads", "writes", "last_version"}
                assert sum(d["writes"] for d in heat.values()) >= 16


class TestFailover:
    def test_write_survives_a_dead_replica(self, cluster, client):
        for i in range(12):
            client.insert({"a": i}, eid=i)
        cluster.kill_node("node1")
        response = client.retrying("insert", attributes={"a": 99}, eid=100)
        assert response.status == "applied"
        assert response.get("replicas_acked") >= 1

    def test_reads_stay_complete_with_one_dead_node_at_rf2(
        self, cluster, client
    ):
        for i in range(24):
            client.insert({"a": i, "uid": f"u{i}"}, eid=i)
        cluster.kill_node("node2")
        response = client.request("query", attributes=["a"])
        assert response.ok  # every shard still has a live replica
        assert response.get("row_count") == 24
        assert cluster.router.counters.failovers >= 1

    def test_restart_restores_and_replays_catchup(self, cluster, client):
        for i in range(12):
            client.insert({"a": i}, eid=i)
        cluster.kill_node("node1")
        # shard_of(100) = 4, whose replicas are node1 (primary) and
        # node2 — the write must fail over and buffer node1's copy
        acked = client.retrying("insert", attributes={"a": 77}, eid=100)
        assert acked.status == "applied"
        assert acked.get("replicas_missed") >= 1
        cluster.restart_node("node1")

        def caught_up():
            client.query(["a"])  # traffic is the probe
            return cluster.router.counters.catchup_replayed >= 1

        assert wait_until(caught_up)
        assert len(cluster.router._catchup["node1"]) == 0  # buffer drained
        # the replica that missed the write serves it after replay
        with cluster.node_client("node1") as direct:
            rows = direct.query(["a"])
        assert {"a": 77} in rows


class TestUnavailability:
    def test_everything_down_is_typed_and_retryable(self, tmp_path):
        with ClusterHarness(
            tmp_path, n_nodes=1, replication_factor=1
        ) as harness:
            with harness.client(check=False) as client:
                client.insert({"a": 1}, eid=1)
                harness.kill_node("node0")
                write = client.request("insert", attributes={"a": 2}, eid=2)
                assert write.status == "node_unavailable"
                assert write.retryable
                assert write.error["code"] == "no_reachable_replica"
                read = client.request("query", attributes=["a"])
                assert read.status == "node_unavailable"
                assert read.get("shards_answered") == 0

    def test_degraded_partial_result_contract(self, tmp_path):
        with ClusterHarness(
            tmp_path, n_nodes=2, replication_factor=1
        ) as harness:
            with harness.client(check=False) as client:
                for i in range(20):
                    client.insert({"a": i, "uid": f"u{i}"}, eid=i)
                harness.kill_node("node1")
                response = client.request("query", attributes=["uid"])
                assert response.status == "degraded"
                assert response.degraded
                assert response.error["code"] == "partial_result"
                unreachable = response.get("unreachable_shards")
                assert unreachable == harness.placement.shards_on("node1")
                assert response.get("shards_answered") == (
                    response.get("shards_total") - len(unreachable)
                )
                # the gathered rows are exactly the live shards' rows
                live = {
                    f"u{i}" for i in range(20)
                    if harness.placement.shard_of(i) not in unreachable
                }
                assert {r["uid"] for r in response.get("rows")} == live
                # a check=True client keeps the partial rows instead of
                # raising (degraded is exempt)
                with harness.client(check=True) as strict:
                    degraded = strict.request("query", attributes=["a"])
                    assert degraded.status == "degraded"


class TestRetryingClient:
    def test_retries_overloaded_until_budget_exhausted(self):
        config = ServerConfig(max_pending=0, maintenance_interval_s=0)
        with ServerThread(config=config) as harness:
            with ServerClient(*harness.address, check=False) as client:
                response = client.retrying(
                    "insert", attributes={"a": 1},
                    attempts=4, base_delay_s=0.001,
                )
                assert response.status == "overloaded"
                stats = client.stats()
                assert stats["counters"]["writes_shed_overloaded"] == 4

    def test_wall_clock_budget_stops_the_loop(self):
        config = ServerConfig(max_pending=0, maintenance_interval_s=0)
        with ServerThread(config=config) as harness:
            with ServerClient(*harness.address, check=False) as client:
                started = time.monotonic()
                client.retrying(
                    "insert", attributes={"a": 1},
                    attempts=10_000, base_delay_s=0.05, max_delay_s=0.05,
                    budget_s=0.2,
                )
                assert time.monotonic() - started < 2.0

    def test_check_mode_restored_and_nonretryable_raises(self):
        with ServerThread(config=ServerConfig(maintenance_interval_s=0)) as h:
            with ServerClient(*h.address) as client:
                client.insert({"a": 1}, eid=1)
                with pytest.raises(ServerError) as excinfo:
                    client.retrying("insert", attributes={"b": 2}, eid=1)
                assert excinfo.value.code == "duplicate_entity"
                assert client.check is True

    def test_backoff_shim_is_gone(self):
        # insert_with_backoff was deprecated in favor of retrying(...)
        # and has been removed; this pins the removal so it cannot
        # silently come back
        assert not hasattr(ServerClient, "insert_with_backoff")


class TestRouterLifecycle:
    def test_shutdown_op_drains_the_router_then_harness_stop_returns(
        self, tmp_path
    ):
        """The ``shutdown`` verb stops the router and closes its loop;
        the harness's own stop() must not race that close."""
        with ClusterHarness(tmp_path, n_nodes=1, replication_factor=1) as h:
            with h.client() as client:
                client.insert({"a": 1}, eid=1)
                assert client.shutdown().get("draining") is True
            router_loop = h.router_thread._thread
            assert wait_until(lambda: not router_loop.is_alive())
            assert h.router.counters.requests_failed == 0
            h.stop()  # the router is already gone: must still return
            assert h.router_thread is None


def _launch(args, tmp_path):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


def _banner_port(proc) -> int:
    """The port of a ``listening on HOST:PORT`` banner, parsed the way
    the benchmark launcher (``benchmarks/layers/procs.py``) parses it."""
    spec = importlib.util.spec_from_file_location(
        "procs", REPO / "benchmarks" / "layers" / "procs.py"
    )
    procs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(procs)
    match = procs._BANNER.search(proc.stdout.readline().encode())
    assert match is not None
    return int(match.group(2))


class TestRouteCommand:
    def test_cli_route_round_trip(self, tmp_path):
        """``python -m repro route`` fronts a ``serve`` node, routes
        traffic, and drains on SIGTERM with its summary line."""
        node = _launch(["serve", "--port", "0", "--name", "node0"], tmp_path)
        router = None
        try:
            node_port = _banner_port(node)
            router = _launch([
                "route", f"node0=127.0.0.1:{node_port}", "--port", "0",
                "--replication-factor", "1",
            ], tmp_path)
            with ServerClient("127.0.0.1", _banner_port(router)) as client:
                for i in range(5):
                    client.insert({"x": i})
                assert len(client.query(["x"])) == 5
            router.send_signal(signal.SIGTERM)
            out, err = router.communicate(timeout=30)
            assert router.returncode == 0, err
            assert "routed 6 requests (5 writes, 1 scatters" in out
        finally:
            for proc in (router, node):
                if proc is not None:
                    proc.kill()
                    proc.communicate()

    def test_bad_node_spec_is_refused(self):
        with pytest.raises(SystemExit, match="bad node spec 'node0=nohost'"):
            main(["route", "node0=nohost"])
