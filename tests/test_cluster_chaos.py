"""Cluster chaos: live serving nodes die and rejoin under mixed traffic.

The acceptance scenario of the distributed serving tier: concurrent
clients drive interleaved inserts, updates, deletes, queries, and SQL
through the router while a conductor kills a serving node mid-traffic
(RST on the wire, queued writes dropped) and later restarts it on the
same port with the same WAL.  Throughout, clients may observe only
*typed* retryable (``overloaded``, ``node_unavailable``) or partial
(``degraded``) statuses — never a protocol error, a hang, or a silent
wrong answer — and after the node rejoins (WAL replay + router
catch-up) the cluster must converge: every write that was ever
acknowledged is served, every node's catalog passes its invariant
check, and a full query round is complete again.

Also here: the WAL durability test (a crashed node's acked writes
survive into its next life) and the graceful-drain regression tests
(a stalled client cannot hold shutdown past the drain deadline).
"""

import json
import socket
import threading
import time

import pytest

import repro.server.frontdoor as frontdoor_module
from repro.router import ClusterHarness, RouterConfig
from repro.server import ServerConfig, ServerThread
from repro.server.client import ServerClient
from repro.server.protocol import encode_request

from tests.conftest import WORKLOAD_SEED, wait_until

#: statuses a chaos client may legitimately observe mid-fault
ACCEPTABLE_STATUSES = frozenset({
    "ok", "applied", "overloaded", "node_unavailable", "degraded",
})


class ChaosWorker(threading.Thread):
    """One router connection driving a seeded mixed op stream.

    Every insert carries a unique ``uid`` attribute — rows do not carry
    entity ids, so the uids are how the final convergence check proves
    zero acknowledged writes were lost.
    """

    def __init__(self, index: int, address, ops: int):
        super().__init__(name=f"chaos-client-{index}")
        self.index = index
        self.address = address
        self.ops = ops
        #: uid -> eid of acked-and-not-deleted inserts
        self.live: dict[str, int] = {}
        self.applied = 0
        self.retried_away = 0
        self.steps = 0  # read by the conductor to pace the kills
        self.failures: list[str] = []

    def _writable(self, response, what: str) -> bool:
        if response.status == "applied":
            self.applied += 1
            return True
        if response.retryable:
            self.retried_away += 1
            return False
        self.failures.append(f"{what} -> {response.status}: {response.error}")
        return False

    def run(self) -> None:
        import random

        rng = random.Random(WORKLOAD_SEED + self.index)
        base = self.index * 1_000_000  # disjoint eid spaces per worker
        try:
            with ServerClient(*self.address, check=False) as client:
                for step in range(self.ops):
                    self.steps = step
                    choice = rng.random()
                    if choice < 0.60 or not self.live:
                        uid = f"w{self.index}-{step}"
                        eid = base + step
                        response = client.retrying(
                            "insert",
                            attributes={
                                "uid": uid,
                                "common": self.index,
                                f"attr{rng.randrange(4)}": step,
                            },
                            eid=eid,
                            attempts=12, base_delay_s=0.005, budget_s=15.0,
                        )
                        if self._writable(response, f"insert {uid}"):
                            self.live[uid] = eid
                    elif choice < 0.72:
                        uid = rng.choice(list(self.live))
                        response = client.retrying(
                            "update", eid=self.live[uid],
                            attributes={"uid": uid, "renamed": step},
                            attempts=12, base_delay_s=0.005, budget_s=15.0,
                        )
                        self._writable(response, f"update {uid}")
                    elif choice < 0.82:
                        uid = rng.choice(list(self.live))
                        response = client.retrying(
                            "delete", eid=self.live[uid],
                            attempts=12, base_delay_s=0.005, budget_s=15.0,
                        )
                        if self._writable(response, f"delete {uid}"):
                            del self.live[uid]
                    elif choice < 0.95:
                        response = client.request(
                            "query", attributes=["uid"], mode="any"
                        )
                        if response.status not in ACCEPTABLE_STATUSES:
                            self.failures.append(
                                f"query -> {response.status}: {response.error}"
                            )
                    else:
                        response = client.request(
                            "sql",
                            sql=f"SELECT uid FROM universalTable "
                                f"WHERE common = {self.index}",
                        )
                        if response.status not in ACCEPTABLE_STATUSES:
                            self.failures.append(
                                f"sql -> {response.status}: {response.error}"
                            )
        except Exception as err:  # surfaced by the main thread
            self.failures.append(f"{type(err).__name__}: {err}")


def run_cluster_chaos(tmp_path, workers: int, ops: int, victims) -> None:
    harness = ClusterHarness(
        tmp_path,
        n_nodes=3,
        replication_factor=2,
        router_config=RouterConfig(
            upstream_timeout_s=1.0, eject_base_s=0.1, eject_max_s=1.0,
        ),
    )
    with harness as cluster:
        pool = [
            ChaosWorker(index, cluster.router_address, ops)
            for index in range(workers)
        ]
        for worker in pool:
            worker.start()

        # the conductor: kill and restart live nodes mid-traffic.  The
        # kills are paced by workload *progress*, not wall-clock sleeps
        # — a fast server could finish the whole workload inside a fixed
        # sleep, leaving no traffic to trip the breaker on
        def progress() -> int:
            return sum(worker.steps for worker in pool)

        stride = max(1, (workers * ops) // (2 * len(victims) + 1))
        for number, victim in enumerate(victims):
            wait_until(
                lambda: progress() >= (2 * number + 1) * stride,
                timeout_s=120,
            )
            cluster.kill_node(victim)
            mark = progress()
            # a stride of traffic against the dead node: failures must
            # actually flow for the breaker to eject and fail over
            wait_until(lambda: progress() >= mark + stride, timeout_s=120)
            cluster.restart_node(victim)
        for worker in pool:
            worker.join(timeout=180)
            assert not worker.is_alive(), f"{worker.name} hung"
        failures = [f for worker in pool for f in worker.failures]
        assert failures == [], failures[:10]

        expected = {uid for worker in pool for uid in worker.live}
        router = cluster.router

        def converged():
            with cluster.client(check=False) as client:
                client.query(["uid"])  # traffic drives probe + catch-up
            return (
                not any(router._catchup[name] for name in router._catchup)
            )

        assert wait_until(converged), "catch-up buffers never drained"

        # ---- zero lost acknowledged writes ---------------------------
        with cluster.client() as client:
            response = client.query_response(["uid"])
            assert response.ok, response.status  # complete, not degraded
            served = [row["uid"] for row in response.get("rows")]
        assert sorted(served) == sorted(expected)  # nothing lost, nothing dup
        assert len(served) == len(set(served))

        # ---- the fault path genuinely fired --------------------------
        counters = router.counters
        assert counters.node_ejections >= 1, "breaker never tripped"
        assert counters.node_restores >= 1, "breaker never restored"
        assert counters.failovers >= 1, "no failover happened"
        splits = sum(
            thread.server.table.partitioner.split_count
            for thread in cluster.nodes.values()
        )
        assert splits > 0, "chaos traffic never split a partition"
        replayed = sum(
            thread.server.counters.wal_records_replayed
            for thread in cluster.nodes.values()
        )
        assert replayed > 0, "restart never replayed a WAL"
        tables = {
            name: thread.server.table for name, thread in cluster.nodes.items()
        }

    # ---- per-node catalog invariants, on stopped nodes (no maintenance
    # pass mutates a catalog while the check walks it) ------------------
    for name, table in tables.items():
        problems = table.check_consistency()
        assert problems == [], f"{name}: {problems}"


class TestClusterChaos:
    def test_kill_and_rejoin_one_node_under_traffic(self, tmp_path):
        run_cluster_chaos(tmp_path, workers=4, ops=60, victims=["node1"])

    @pytest.mark.slow
    def test_soak_two_kill_cycles_under_heavier_traffic(self, tmp_path):
        run_cluster_chaos(
            tmp_path, workers=8, ops=150, victims=["node1", "node2"],
        )


class TestWalDurability:
    def test_acked_writes_survive_a_crash_via_wal_replay(self, tmp_path):
        """rf=1, so after the crash only the WAL can restore the rows."""
        with ClusterHarness(tmp_path, n_nodes=1, replication_factor=1) as h:
            with h.client() as client:
                for i in range(25):
                    client.insert({"uid": f"u{i}", "a": i}, eid=i)
            h.kill_node("node0")
            h.restart_node("node0")

            def recovered():
                with h.client(check=False) as client:
                    response = client.request("query", attributes=["uid"])
                    return response.ok and response.get("row_count") == 25

            assert wait_until(recovered)
            node = h.nodes["node0"].server
            assert node.counters.wal_records_replayed == 25
            assert node.table.check_consistency() == []

    def test_unacked_writes_are_not_resurrected(self, tmp_path):
        """The WAL records exactly the acked writes: a crash must not
        invent writes the client never got an ``applied`` for."""
        with ClusterHarness(tmp_path, n_nodes=1, replication_factor=1) as h:
            acked = set()
            with h.client(check=False) as client:
                for i in range(10):
                    if client.insert({"uid": f"u{i}"}, eid=i).ok:
                        acked.add(f"u{i}")
            h.kill_node("node0")
            h.restart_node("node0")

            def recovered():
                with h.client(check=False) as client:
                    response = client.request("query", attributes=["uid"])
                    return response.ok
            assert wait_until(recovered)
            with h.client() as client:
                served = {r["uid"] for r in client.query(["uid"])}
            assert served == acked


    def test_crash_mid_burst_keeps_a_prefix_of_the_send_order(self, tmp_path):
        """One connection's pipelined writes are applied first-in
        first-out and journaled in that order, so whatever a crash
        leaves behind is the acked writes and then, at most, a few sent
        right after them — never a gap."""
        with ClusterHarness(tmp_path, n_nodes=1, replication_factor=1) as h:
            node = h.nodes["node0"].server
            # the third group commit hangs until the node is dead: the
            # crash lands with two batches acked, a third applied and
            # journaled but not synced, and the rest of the burst behind
            real_sync = node._wal.sync
            syncs = iter((real_sync, real_sync))
            third_sync, crashed = threading.Event(), threading.Event()

            def sync():
                commit = next(syncs, None)
                if commit is None:
                    third_sync.set()
                    crashed.wait(30)
                    raise OSError("the node died under this fsync")
                commit()

            node._wal.sync = sync
            address = h.addresses["node0"]
            acked: list[int] = []
            with socket.create_connection(
                (address.host, address.port), timeout=30
            ) as sock:
                sock.sendall(b"".join(
                    encode_request(
                        "insert", request_id=i + 1, eid=i,
                        attributes={"uid": f"u{i}"},
                    )
                    for i in range(200)
                ))
                assert third_sync.wait(20)
                h.kill_node("node0")
                crashed.set()
                try:
                    for line in sock.makefile("rb"):
                        if b'"status":"applied"' in line:
                            acked.append(json.loads(line)["eid"])
                except OSError:
                    pass  # the RST of the crash
            h.restart_node("node0")
            with h.node_client("node0") as client:
                served = sorted(
                    int(row["uid"][1:]) for row in client.query(["uid"])
                )
            assert 0 < len(acked) < 200
            assert acked == list(range(len(acked)))
            assert served == list(range(len(served)))  # a prefix: no gap
            assert len(served) >= len(acked)  # no acked write lost
            recovered = h.nodes["node0"].server
            assert recovered.counters.wal_records_replayed == len(served)
            assert recovered.table.check_consistency() == []


def _stall_connection(address, rows: int):
    """Fill a server's send buffer: pipeline reads, never read replies."""
    sock = socket.create_connection(address, timeout=30)
    payload = b"".join(
        encode_request("query", request_id=i + 1, attributes=["blob"])
        for i in range(rows)
    )
    sock.sendall(payload)
    return sock  # caller keeps it open — and never reads


class TestBoundedDrain:
    @pytest.mark.parametrize("tier", ["server", "router"])
    def test_stalled_client_cannot_hang_shutdown(
        self, tmp_path, tier, monkeypatch
    ):
        """Both tiers drain through the same front door: a client that
        never reads is force-closed at the deadline, and counted."""
        monkeypatch.setattr(frontdoor_module, "DRAIN_DEADLINE_S", 0.5)
        if tier == "server":
            harness = door = ServerThread(config=ServerConfig(
                maintenance_interval_s=0,
            )).start()
        else:
            harness = ClusterHarness(
                tmp_path, n_nodes=1, replication_factor=1,
            ).start()
            door = harness.router_thread
        try:
            with ServerClient(*door.address) as client:
                blob = "x" * 2_000
                for i in range(200):
                    client.insert({"blob": blob, "i": i}, eid=i)
            stalled = _stall_connection(door.address, rows=400)
            try:
                time.sleep(0.3)  # let the writer block on the full socket
                started = time.monotonic()
                door.stop()
                elapsed = time.monotonic() - started
                assert elapsed < 5.0, f"{tier} drain took {elapsed:.1f}s"
                assert door.server.counters.connections_force_closed >= 1
            finally:
                stalled.close()
        finally:
            harness.stop()
