"""The pipelined router: one session's burst, routed in arrival order.

Each client session owns one pipelined upstream channel per node; its
reads and writes are dispatched the moment they are decoded, completed
concurrently and answered in request order.  Under test:

* :class:`TestRouterPipelinedDifferential` — the router twin of
  ``test_isolation.py::TestPipelinedDifferential``: any op sequence,
  ``insert X``/``update X``/``delete X`` in one burst included, answers
  response for response like the same sequence sent one request at a
  time, and every shard's replicas agree afterwards;
* :class:`TestUpstreamConnections` — a session costs one connection per
  node, not one per exchange;
* :class:`TestMidBurstFailure` — a node killed under a pipelined burst:
  typed statuses in id order, then, after the node rejoins, every acked
  write served exactly once and replicas that agree;
* :class:`TestShedReplica` — a replica that sheds a write another
  replica acked is caught up, not silently left behind, and not with
  the shed write replayed over a later one it applied first;
* :class:`TestGracefulStop` — a stop under a burst answers every
  request in flight;
* :class:`TestAdminFanout` / :class:`TestPoisonedChannel` — admin ops
  stay off the shared channels, and exchanges that fail together with
  one channel count once against the node's breaker.
"""

import asyncio
import itertools
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings

import repro.router.router as router_module
from repro.router import (
    CinderellaRouter,
    ClusterHarness,
    NodeAddress,
    PlacementMap,
    RouterConfig,
)
from repro.router.pool import UpstreamError
from repro.server import protocol

from tests.conftest import row_multiset, wait_until
from tests.test_cluster_chaos import ACCEPTABLE_STATUSES
from tests.test_isolation import WIRE_OPS


def _answers(responses) -> list:
    """What a client can tell two runs apart by: ids, statuses, error
    codes, payloads with rows as multisets (a query's ``stats`` count
    cache hits, which depend on how many snapshots were cut)."""
    answers = []
    for response in responses:
        fields = {
            key: value for key, value in response.fields.items()
            if key not in ("stats", "rows")
        }
        rows = response.get("rows")
        answers.append((
            response.id, response.status, (response.error or {}).get("code"),
            fields, None if rows is None else row_multiset(rows),
        ))
    return answers


def replica_digests(cluster: ClusterHarness) -> dict[int, list[tuple]]:
    """Per shard, every replica's (count, digest) of its copy."""
    placement = cluster.placement
    digests: dict[int, list[tuple]] = {}
    for shard in placement.shards:
        for node in placement.replicas(shard):
            with cluster.node_client(node.name) as client:
                answer = client.request(
                    "sync_snapshot", n_shards=placement.n_shards,
                    shards=[shard], count_only=True,
                )
            digests.setdefault(shard, []).append(
                (answer.get("count"), answer.get("digest"))
            )
    return digests


def assert_replicas_agree(cluster: ClusterHarness) -> None:
    for shard, copies in replica_digests(cluster).items():
        assert len(set(copies)) == 1, f"shard {shard} replicas differ: {copies}"


def _caught_up(cluster: ClusterHarness) -> bool:
    """Drive one read (traffic drives replay); true once no replica has
    writes buffered and every replica is healthy."""
    router = cluster.router
    with cluster.client(check=False) as client:
        client.query(["uid"])
    return not any(router._catchup.values()) and all(
        tracker.state == "healthy" for tracker in router.replicas.values()
    )


class TestRouterPipelinedDifferential:
    @given(ops=WIRE_OPS)
    @settings(max_examples=25)
    def test_a_burst_answers_like_one_request_at_a_time(self, tmp_path_factory, ops):
        """Through a 3-node rf=2 cluster, a burst on one connection is
        what the same sequence yields sent with a round trip each."""
        with ClusterHarness(
            tmp_path_factory.mktemp("burst"), n_nodes=3, replication_factor=2,
        ) as cluster:
            with cluster.client() as client:
                burst = client.pipeline(ops)
            assert_replicas_agree(cluster)
        with ClusterHarness(
            tmp_path_factory.mktemp("one"), n_nodes=3, replication_factor=2,
        ) as cluster:
            with cluster.client(check=False) as client:
                one_by_one = [client.request(op, **fields) for op, fields in ops]
            assert_replicas_agree(cluster)
        assert _answers(burst) == _answers(one_by_one)


class TestUpstreamConnections:
    def test_sessions_dial_once_per_node(self, tmp_path):
        """8 sessions x 100 pipelined inserts: one channel per session
        and node, plus the pools' own, however deep the bursts."""
        with ClusterHarness(tmp_path, n_nodes=3, replication_factor=2) as cluster:
            failures: list[str] = []

            def burst(index: int) -> None:
                with cluster.client() as client:
                    for response in client.pipeline(
                        ("insert", {"eid": index * 1_000 + i, "attributes": {
                            "common": index, f"attr{i % 4}": i,
                        }})
                        for i in range(100)
                    ):
                        if response.status not in ACCEPTABLE_STATUSES:
                            failures.append(f"{response.status}: {response.error}")

            workers = [
                threading.Thread(target=burst, args=(index,)) for index in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            assert failures == []
            with cluster.client() as client:
                pools = client.stats()["pools"]
        assert sum(pool["dials"] for pool in pools.values()) <= 8 * 3 + 3
        assert sum(pool["exchanges"] for pool in pools.values()) >= 8 * 100 * 2


class TestMidBurstFailure:
    def test_kill_during_a_pipelined_burst(self, tmp_path):
        """Insert X and update X of one burst in flight together while a
        replica dies: answers stay typed and in id order, and nothing an
        ack promised is lost or doubled once the node is back."""
        with ClusterHarness(tmp_path, n_nodes=3, replication_factor=2) as cluster:
            router = cluster.router

            def killer() -> None:
                wait_until(
                    lambda: router.counters.writes_routed >= 40,
                    interval_s=0.001,
                )
                cluster.kill_node("node1")

            conductor = threading.Thread(target=killer)
            conductor.start()
            ops = []
            for i in range(100):
                ops.append(("insert", {"eid": i, "attributes": {"uid": f"u{i}"}}))
                ops.append(("update", {"eid": i, "attributes": {
                    "uid": f"u{i}", "renamed": i,
                }}))
            with cluster.client(timeout=60) as client:
                responses = client.pipeline(ops)
            conductor.join(timeout=60)

            assert [r.id for r in responses] == sorted(r.id for r in responses)
            assert {r.status for r in responses} <= ACCEPTABLE_STATUSES
            acked = {
                f"u{fields['eid']}"
                for (op, fields), response in zip(ops, responses)
                if op == "insert" and response.status == "applied"
            }
            assert acked  # the burst was not refused wholesale
            # the kill landed mid-burst: node1's copies of later writes
            # were missed, and wait in its catch-up buffer
            assert any(r.get("replicas_missed") for r in responses)

            cluster.restart_node("node1")
            assert wait_until(lambda: _caught_up(cluster), timeout_s=30)
            with cluster.client() as client:
                served = [row["uid"] for row in client.query(["uid"])]
            assert sorted(served) == sorted(acked)  # exactly once each
            assert_replicas_agree(cluster)


def _shed_writes(server, *numbers: int) -> None:
    """Make *server* shed the writes it admits as its *numbers*-th
    (0-based, in arrival order) with ``overloaded``; the rest are
    admitted as usual."""
    admission = server._admission
    admit, arrivals = admission.admit, itertools.count()
    admission.admit = lambda queued: (
        next(arrivals) not in numbers and admit(queued)
    )


def _slow_commits(server, delay_s: float) -> None:
    """Delay every group commit of *server* by *delay_s* (on its worker
    thread: the node keeps reading and answering meanwhile)."""
    apply_batch = server._apply_batch

    def slow(batch):
        time.sleep(delay_s)
        return apply_batch(batch)

    server._apply_batch = slow


#: bursts in which node1 sheds one write (its index) that node0 applies,
#: while node1 applies a later write of the same entity
_OVERTAKEN_BURSTS = {
    "insert-then-delete": ([
        ("insert", {"eid": 7, "attributes": {"uid": "u7"}}),
        ("delete", {"eid": 7}),
    ], 0, []),
    "update-then-update": ([
        ("insert", {"eid": 7, "attributes": {"uid": "u7", "v": 0}}),
        ("update", {"eid": 7, "attributes": {"uid": "u7", "v": 1}}),
        ("update", {"eid": 7, "attributes": {"uid": "u7", "v": 2}}),
    ], 1, [{"uid": "u7", "v": 2}]),
}


class TestShedReplica:
    @pytest.mark.parametrize("burst", sorted(_OVERTAKEN_BURSTS))
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_a_shed_write_is_not_overtaken(self, tmp_path, burst, pipelined):
        """node1 sheds one write and then gets a later write of the same
        entity before the shed one is replayed — pipelined, node0's slow
        commits make node1's answers arrive before the shed write's
        verdict.  node1 must end where node0 is, not with the shed write
        replayed over the later one."""
        ops, shed, expected = _OVERTAKEN_BURSTS[burst]
        with ClusterHarness(tmp_path, n_nodes=2, replication_factor=2) as cluster:
            _slow_commits(cluster.nodes["node0"].server, 0.1)
            _shed_writes(cluster.nodes["node1"].server, shed)
            with cluster.client() as client:
                if pipelined:
                    responses = client.pipeline(ops)
                else:
                    responses = [client.request(op, **fields) for op, fields in ops]
            assert [r.status for r in responses] == ["applied"] * len(ops)
            assert responses[shed].get("replicas_missed") == 1
            assert wait_until(lambda: _caught_up(cluster), timeout_s=30)
            assert_replicas_agree(cluster)
            for node in ("node0", "node1"):
                with cluster.node_client(node) as direct:
                    assert direct.query(["uid", "v"]) == expected

    def test_a_replica_that_shed_an_acked_write_is_caught_up(self, tmp_path):
        with ClusterHarness(tmp_path, n_nodes=2, replication_factor=2) as cluster:
            shedding = cluster.nodes["node1"].server._admission
            window, shedding.window = shedding.window, 0  # sheds every write
            with cluster.client() as client:
                ack = client.insert({"uid": "u7"}, eid=7)
                assert ack.status == "applied"
                assert ack.get("replicas_acked") == 1
                assert ack.get("replicas_missed") == 1
                assert cluster.router._catchup["node1"]
                shedding.window = window
                # the next exchange with the replica replays its copy
                assert client.query(["uid"]) == [{"uid": "u7"}]
            assert not cluster.router._catchup["node1"]
            with cluster.node_client("node1") as direct:
                assert direct.query(["uid"]) == [{"uid": "u7"}]
            assert_replicas_agree(cluster)


class TestGracefulStop:
    def test_stop_answers_every_request_in_flight(self, tmp_path):
        """A graceful stop under a pipelined burst: every request the
        router had read is answered before its connection closes —
        slow commits keep them in flight when the stop begins."""
        n = 20
        with ClusterHarness(tmp_path, n_nodes=2, replication_factor=2) as cluster:
            for node in cluster.nodes.values():
                _slow_commits(node.server, 0.2)
            burst = b"".join(
                protocol.encode_request(
                    "insert", i, eid=i, attributes={"uid": f"u{i}"},
                )
                for i in range(1, n + 1)
            )
            with socket.create_connection(
                cluster.router_address, timeout=30
            ) as sock:
                sock.sendall(burst)
                assert wait_until(
                    lambda: cluster.router.counters.writes_routed >= n,
                    interval_s=0.001,
                )
                stopper = threading.Thread(target=cluster.router_thread.stop)
                stopper.start()
                answers = [json.loads(line) for line in sock.makefile("rb")]
                stopper.join(timeout=30)
                assert not stopper.is_alive()
        assert [answer["id"] for answer in answers] == list(range(1, n + 1))
        assert {answer["status"] for answer in answers} == {"applied"}


class TestAdminFanout:
    def test_admin_ops_use_channels_of_their_own(self, tmp_path):
        """``maintain``/``obs``/``stats heat`` fan out on channels opened
        for them and closed after: the shared channels that carry
        barriers and retries never queue behind a slow admin exchange."""
        with ClusterHarness(tmp_path, n_nodes=2, replication_factor=2) as cluster:
            with cluster.client() as client:
                for op, fields in (
                    ("maintain", {}), ("obs", {}), ("stats", {"heat": True}),
                ):
                    assert client.request(op, **fields).ok
            for pool in cluster.router.pools.values():
                assert pool._shared is None
                assert pool.as_dict()["channels"] == 0
                assert pool.dials == 3


class TestPoisonedChannel:
    def test_exchanges_failing_together_count_once(self, monkeypatch):
        """A channel that times out fails every exchange queued on it
        with one error: the node's breaker counts one failure, so a
        burst on a stalled connection cannot eject a node by itself."""
        with socket.socket() as mute:
            mute.bind(("127.0.0.1", 0))
            mute.listen()  # the kernel accepts; nobody ever answers
            node = NodeAddress("mute", "127.0.0.1", mute.getsockname()[1])
            monkeypatch.setattr(router_module, "_UPSTREAM_ATTEMPTS", 1)
            router = CinderellaRouter(
                PlacementMap([node]),
                config=RouterConfig(upstream_timeout_s=0.2),
            )

            async def burst() -> list:
                channel = router.pools["mute"].channel()
                return await asyncio.gather(*(
                    router._node_exchange(node, "query", {}, channel=channel)
                    for _ in range(5)
                ), return_exceptions=True)

            errors = asyncio.run(burst())
        assert all(isinstance(error, UpstreamError) for error in errors)
        assert len({id(error) for error in errors}) == 1
        health = router.health["mute"]
        assert health.failures == 1
        assert health.state == "suspect"
