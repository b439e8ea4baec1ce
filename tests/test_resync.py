"""The lost-replica gap, closed: divergence, peer resync, re-admission.

The scenario the catch-up buffer alone cannot survive: a node stays
down long enough that the router's bounded buffer overflows.  Before
the resync machinery, the overflow silently dropped the oldest buffered
writes and the rejoining node served stale answers while pretending to
be whole.  Now the router declares the replica ``diverged``, excludes
it from reads and writes, streams a healthy shard peer's copy onto it
(``sync_snapshot`` pages + ``sync_delta``), and re-admits it only after
count-and-digest agreement.

* :class:`TestReplicaLifecycle` — the tracker state machine in
  isolation: legal transitions, illegal ones refused.
* :class:`TestDivergenceDeclared` — overflow marks the replica
  diverged, drops are *counted* (never silent), and the diverged node
  stops receiving reads and writes.
* :class:`TestResyncDifferential` — the satellite differential test:
  kill a node, write far past the catch-up budget, resync, then prove
  query and SQL answers on the rebuilt node are multiset-identical to a
  healthy replica's for **every** shard it hosts.
* :class:`TestResyncUnderLiveTraffic` — the acceptance chaos test:
  divergence and automatic resync *while* mixed traffic keeps flowing;
  zero acknowledged writes lost, zero silent drops.
"""

import asyncio
import threading
import time

import pytest

import repro.router.router as router_module
from repro.router import ClusterHarness, RouterConfig
from repro.router.health import (
    REPLICA_DIVERGED,
    REPLICA_HEALTHY,
    REPLICA_LAGGING,
    REPLICA_RESYNCING,
    ReplicaTracker,
)

from tests.test_cluster_chaos import ChaosWorker, wait_until

#: small budgets so divergence fires in seconds, not minutes
SMALL_BUDGET = dict(
    upstream_timeout_s=1.0, eject_base_s=0.05, eject_max_s=0.5,
)


@pytest.fixture(autouse=True)
def small_catchup_budget(monkeypatch):
    """Eight buffered writes per replica before it is declared diverged."""
    monkeypatch.setattr(router_module, "_CATCHUP_LIMIT", 8)


def router_do(cluster, coroutine, timeout_s: float = 60.0):
    """Run a coroutine on the router's event loop from the test thread."""
    future = asyncio.run_coroutine_threadsafe(
        coroutine, cluster.router_thread._loop
    )
    return future.result(timeout=timeout_s)


def shard_uids(client, n_shards: int, shard: int) -> list[str]:
    """One node's answer for one shard, via the public query op."""
    response = client.request(
        "query", attributes=["uid"], mode="any",
        shard_filter={"n_shards": n_shards, "shards": [shard]},
    )
    assert response.ok, response.status
    return sorted(row["uid"] for row in response.get("rows"))


def shard_uids_sql(client, n_shards: int, shard: int) -> list[str]:
    """The same answer through the SQL surface."""
    response = client.request(
        "sql", sql="SELECT uid FROM universalTable",
        shard_filter={"n_shards": n_shards, "shards": [shard]},
    )
    assert response.ok, response.status
    return sorted(row["uid"] for row in response.get("rows"))


class TestReplicaLifecycle:
    def test_happy_path_round_trip(self):
        tracker = ReplicaTracker("node0")
        assert tracker.state == REPLICA_HEALTHY
        assert tracker.in_write_set and tracker.is_queryable
        tracker.mark_lagging()
        assert tracker.state == REPLICA_LAGGING
        assert tracker.in_write_set and tracker.is_queryable
        tracker.mark_caught_up()
        assert tracker.state == REPLICA_HEALTHY

    def test_divergence_and_repair(self):
        tracker = ReplicaTracker("node0")
        tracker.mark_lagging()
        assert tracker.mark_diverged("catchup_overflow") is True
        assert tracker.state == REPLICA_DIVERGED
        assert not tracker.in_write_set and not tracker.is_queryable
        assert tracker.mark_diverged("again") is False  # already out
        assert tracker.divergences == 1
        tracker.begin_resync()
        assert tracker.state == REPLICA_RESYNCING
        assert not tracker.in_write_set  # still excluded while copying
        tracker.complete_resync()
        assert tracker.state == REPLICA_HEALTHY
        assert tracker.resyncs == 1
        assert tracker.last_reason is None

    def test_resync_can_finish_lagging(self):
        tracker = ReplicaTracker("node0")
        tracker.mark_diverged("catchup_overflow")
        tracker.begin_resync()
        tracker.complete_resync(lagging=True)
        assert tracker.state == REPLICA_LAGGING

    def test_failed_resync_returns_to_diverged(self):
        tracker = ReplicaTracker("node0")
        tracker.mark_diverged("catchup_overflow")
        tracker.begin_resync()
        tracker.fail_resync("peer_unreachable")
        assert tracker.state == REPLICA_DIVERGED
        assert tracker.last_reason == "peer_unreachable"

    def test_divergence_mid_resync_aborts_it(self):
        """A second overflow while resyncing must not be swallowed — the
        in-flight resync sees the state change and gives up."""
        tracker = ReplicaTracker("node0")
        tracker.mark_diverged("catchup_overflow")
        tracker.begin_resync()
        assert tracker.mark_diverged("catchup_overflow") is True
        assert tracker.state == REPLICA_DIVERGED

    def test_illegal_transitions_refused(self):
        tracker = ReplicaTracker("node0")
        with pytest.raises(RuntimeError):
            tracker.begin_resync()  # not diverged
        with pytest.raises(RuntimeError):
            tracker.complete_resync()  # not resyncing
        tracker.mark_caught_up()  # no-op from healthy, not an error
        assert tracker.state == REPLICA_HEALTHY


class TestDivergenceDeclared:
    def test_overflow_is_counted_not_silent(self, tmp_path):
        """The bug this PR closes: overflowing the catch-up budget used
        to ``popleft`` the oldest buffered write and carry on."""
        config = RouterConfig(resync_interval_s=0.0, **SMALL_BUDGET)
        with ClusterHarness(
            tmp_path, n_nodes=3, replication_factor=2, router_config=config
        ) as cluster:
            with cluster.client() as client:
                for eid in range(20):
                    client.insert({"uid": f"u{eid}"}, eid=eid)
            cluster.kill_node("node1")
            with cluster.client(check=False) as client:
                for eid in range(20, 80):
                    client.retrying(
                        "insert", attributes={"uid": f"u{eid}"}, eid=eid,
                        attempts=12, base_delay_s=0.005, budget_s=15.0,
                    )
            router = cluster.router
            assert router.replicas["node1"].state == REPLICA_DIVERGED
            assert router.replicas["node1"].last_reason == "catchup_overflow"
            assert router.counters.nodes_diverged >= 1
            assert router.counters.catchup_dropped > 0
            # divergence emptied the buffer — nothing silently replays
            assert not router._catchup["node1"]

            # the wire-visible accounting (satellite: stats response)
            with cluster.client() as client:
                stats = client.stats()
            assert stats["replicas"]["node1"]["state"] == REPLICA_DIVERGED
            assert stats["catchup_dropped"]["node1"] > 0
            assert stats["catchup_buffered"]["node1"] == 0

            # reads and writes keep flowing — served by healthy replicas
            with cluster.client() as client:
                response = client.query_response(["uid"])
                assert response.ok
                assert response.get("row_count") == 80
                assert client.insert({"uid": "after"}, eid=500).status \
                    == "applied"


class TestResyncDifferential:
    def test_resynced_node_answers_exactly_like_its_peers(self, tmp_path):
        """Satellite differential test: after divergence and resync, the
        rebuilt node's query/SQL answers are multiset-identical to a
        healthy replica's for every shard it hosts."""
        config = RouterConfig(resync_interval_s=0.0, **SMALL_BUDGET)
        with ClusterHarness(
            tmp_path, n_nodes=3, replication_factor=2, router_config=config
        ) as cluster:
            with cluster.client() as client:
                for eid in range(40):
                    client.insert({"uid": f"u{eid}", "v": eid}, eid=eid)
            cluster.kill_node("node1")
            # run far past the catch-up budget while the node is down:
            # fresh inserts, rewrites, and deletes of pre-crash entities
            # (the WAL the dead node will replay on restart is now a lie)
            with cluster.client(check=False) as client:
                for eid in range(40, 100):
                    client.retrying(
                        "insert", attributes={"uid": f"u{eid}", "v": eid},
                        eid=eid, attempts=12, base_delay_s=0.005,
                        budget_s=15.0,
                    )
                for eid in range(0, 20, 4):
                    client.retrying(
                        "update", eid=eid,
                        attributes={"uid": f"u{eid}", "rev": 1},
                        attempts=12, base_delay_s=0.005, budget_s=15.0,
                    )
                for eid in (1, 5, 9):
                    client.retrying(
                        "delete", eid=eid,
                        attempts=12, base_delay_s=0.005, budget_s=15.0,
                    )
            router = cluster.router
            assert router.replicas["node1"].state == REPLICA_DIVERGED

            cluster.restart_node("node1")
            assert router_do(cluster, router.resync_node("node1")) is True
            assert router.replicas["node1"].state in (
                REPLICA_HEALTHY, REPLICA_LAGGING
            )
            assert router.counters.resyncs_started >= 1
            assert router.counters.resyncs_completed >= 1
            assert router.counters.sync_entities_streamed > 0

            n_shards = cluster.placement.n_shards
            hosted = cluster.placement.shards_on("node1")
            assert hosted, "placement stopped putting shards on node1?"
            for shard in hosted:
                peers = [
                    node.name
                    for node in cluster.placement.replicas(shard)
                    if node.name != "node1"
                ]
                with cluster.node_client("node1") as target, \
                        cluster.node_client(peers[0]) as peer:
                    assert shard_uids(target, n_shards, shard) == \
                        shard_uids(peer, n_shards, shard), (
                            f"shard {shard}: query answers differ after "
                            f"resync"
                        )
                    assert shard_uids_sql(target, n_shards, shard) == \
                        shard_uids_sql(peer, n_shards, shard), (
                            f"shard {shard}: SQL answers differ after resync"
                        )
            # the deletes that happened while node1 was down must not be
            # resurrected by its own (stale) WAL replay
            with cluster.node_client("node1") as target:
                served = {
                    uid
                    for shard in hosted
                    for uid in shard_uids(target, n_shards, shard)
                }
            assert not served & {"u1", "u5", "u9"}

    def test_resync_without_peers_fails_cleanly(self, tmp_path):
        """rf=1: the only copy diverged, there is no peer to stream from
        — the resync must fail and the replica must stay quarantined."""
        config = RouterConfig(resync_interval_s=0.0, **SMALL_BUDGET)
        with ClusterHarness(
            tmp_path, n_nodes=2, replication_factor=1, router_config=config
        ) as cluster:
            with cluster.client() as client:
                for eid in range(10):
                    client.insert({"uid": f"u{eid}"}, eid=eid)
            # force divergence by hand: with rf=1 a dead node refuses
            # writes outright rather than buffering forever
            async def declare():
                cluster.router._mark_diverged("node1", reason="operator")

            router_do(cluster, declare())
            assert cluster.router.replicas["node1"].state == REPLICA_DIVERGED
            assert router_do(
                cluster, cluster.router.resync_node("node1")
            ) is False
            assert cluster.router.replicas["node1"].state == REPLICA_DIVERGED
            assert cluster.router.counters.resyncs_failed >= 1


class InsertPump(threading.Thread):
    """Writes continuously until told to stop — the conductor's way of
    guaranteeing live traffic for *every* divergence cycle, however
    fast the fixed-op chaos workers burn through their budgets."""

    def __init__(self, index: int, address, stop: threading.Event):
        super().__init__(name=f"resync-pump-{index}")
        self.index = index
        self.address = address
        self.stop = stop
        self.live: dict[str, int] = {}
        self.failures: list[str] = []

    def run(self) -> None:
        from repro.server.client import ServerClient

        base = self.index * 1_000_000  # disjoint from the chaos workers
        step = 0
        try:
            with ServerClient(*self.address, check=False) as client:
                while not self.stop.is_set():
                    uid = f"w{self.index}-{step}"
                    response = client.retrying(
                        "insert",
                        attributes={"uid": uid, "common": self.index},
                        eid=base + step,
                        attempts=12, base_delay_s=0.005, budget_s=15.0,
                    )
                    if response.status == "applied":
                        self.live[uid] = base + step
                    elif not response.retryable:
                        self.failures.append(
                            f"insert {uid} -> {response.status}: "
                            f"{response.error}"
                        )
                    step += 1
        except Exception as err:  # surfaced by the main thread
            self.failures.append(f"{type(err).__name__}: {err}")


def run_divergence_chaos(tmp_path, workers: int, ops: int, victims) -> None:
    """The acceptance scenario: replicas are held down past their
    catch-up budget **under live mixed traffic**, the monitor resyncs
    them automatically after restart, and at the end every acknowledged
    write is served exactly once."""
    config = RouterConfig(resync_interval_s=0.05, **SMALL_BUDGET)
    harness = ClusterHarness(
        tmp_path, n_nodes=3, replication_factor=2, router_config=config
    )
    with harness as cluster:
        router = cluster.router
        stop_pump = threading.Event()
        pool = [
            ChaosWorker(index, cluster.router_address, ops)
            for index in range(workers)
        ]
        pump = InsertPump(workers, cluster.router_address, stop_pump)
        for worker in pool:
            worker.start()
        pump.start()
        try:
            for victim in victims:
                time.sleep(0.3)  # let traffic establish / recover
                cluster.kill_node(victim)
                assert wait_until(
                    lambda: router.replicas[victim].state == REPLICA_DIVERGED
                ), f"traffic never overflowed {victim}'s catch-up budget"
                time.sleep(0.3)  # stay down: more writes it never saw
                cluster.restart_node(victim)
                # wait out the repair before the next cycle: if a
                # shard's *entire* replica set diverges at once there is
                # no healthy peer left to stream from — that correlated
                # failure needs PITR from backups, not online resync
                # (see docs/DURABILITY.md)
                assert wait_until(
                    lambda: router.replicas[victim].in_write_set,
                    timeout_s=30.0,
                ), (
                    f"{victim} was not repaired: "
                    f"{router.replicas[victim].as_dict()}"
                )
        finally:
            stop_pump.set()
        pump.join(timeout=180)
        assert not pump.is_alive(), "insert pump hung"
        for worker in pool:
            worker.join(timeout=180)
            assert not worker.is_alive(), f"{worker.name} hung"
        failures = [
            f for source in pool + [pump] for f in source.failures
        ]
        assert failures == [], failures[:10]

        # the monitor repairs every victim without being asked
        assert wait_until(
            lambda: router.counters.resyncs_completed >= len(victims)
            and all(router.replicas[v].in_write_set for v in victims),
            timeout_s=30.0,
        ), (
            f"monitor never repaired {victims}: "
            f"{ {v: router.replicas[v].as_dict() for v in victims} }, "
            f"failed={router.counters.resyncs_failed}"
        )

        def settled():
            with cluster.client(check=False) as client:
                client.query(["uid"])  # drives probe + catch-up
            return (
                all(
                    tracker.state == REPLICA_HEALTHY
                    for tracker in router.replicas.values()
                )
                and not any(router._catchup.values())
            )

        assert wait_until(settled), "replicas never finished catching up"

        # ---- zero lost acked writes, zero silent drops ----------------
        expected = {uid for source in pool + [pump] for uid in source.live}
        with cluster.client() as client:
            response = client.query_response(["uid"])
            assert response.ok, response.status
            served = [row["uid"] for row in response.get("rows")]
        assert sorted(served) == sorted(expected)
        assert len(served) == len(set(served))

        # every victim's own copy agrees with its peers, shard by shard
        n_shards = cluster.placement.n_shards
        for victim in victims:
            for shard in cluster.placement.shards_on(victim):
                peer = next(
                    node.name
                    for node in cluster.placement.replicas(shard)
                    if node.name != victim
                )
                with cluster.node_client(victim) as target, \
                        cluster.node_client(peer) as other:
                    assert shard_uids(target, n_shards, shard) == \
                        shard_uids(other, n_shards, shard)

        tables = {
            name: thread.server.table for name, thread in cluster.nodes.items()
        }

    # the nodes are stopped: no maintenance pass mutates a catalog while
    # the invariant check walks it
    for name, table in tables.items():
        problems = table.check_consistency()
        assert problems == [], f"{name}: {problems}"

    counters = router.counters
    assert counters.nodes_diverged >= len(victims)
    assert counters.catchup_dropped > 0, "divergence without drops?"
    assert counters.resyncs_started >= len(victims)
    assert counters.resyncs_completed >= len(victims)
    assert counters.sync_entities_streamed > 0


class TestResyncUnderLiveTraffic:
    def test_divergence_repaired_with_zero_lost_writes(self, tmp_path):
        run_divergence_chaos(tmp_path, workers=4, ops=80, victims=["node1"])

    @pytest.mark.slow
    def test_soak_two_divergence_cycles_under_heavier_traffic(self, tmp_path):
        run_divergence_chaos(
            tmp_path, workers=6, ops=200, victims=["node1", "node2"],
        )
