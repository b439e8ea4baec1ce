"""The connection loop both serving tiers share, held to one contract.

:class:`~repro.server.frontdoor.FrontDoor` reads frames ahead, asks the
tier which requests to dispatch, and answers in request order; the node
and the router differ only in their dispatch rule.  Every case here runs
against both: a serving node, and a router in front of one node.
"""

import gc
import json
import logging
import socket
import time
from typing import NamedTuple

import pytest

from repro.router import ClusterHarness
from repro.server import CinderellaServer, ServerConfig, ServerThread
from repro.server.frontdoor import FrontDoor
from repro.server.protocol import MAX_LINE_BYTES, encode_request

from tests.conftest import wait_until
from tests.test_server import _Gate


class _Door(NamedTuple):
    address: tuple[str, int]
    #: the tier under test
    front: FrontDoor
    #: the node its writes land on
    node: CinderellaServer


@pytest.fixture(params=["server", "router"])
def door(request, tmp_path):
    if request.param == "server":
        config = ServerConfig(maintenance_interval_s=0)
        with ServerThread(config=config) as harness:
            yield _Door(harness.address, harness.server, harness.server)
    else:
        with ClusterHarness(tmp_path, n_nodes=1, replication_factor=1) as cluster:
            yield _Door(
                cluster.router_address, cluster.router,
                cluster.nodes["node0"].server,
            )


def _inserts(count: int, first_id: int = 1) -> bytes:
    return b"".join(
        encode_request("insert", i, eid=i, attributes={"a": i})
        for i in range(first_id, first_id + count)
    )


class TestConnectionLoop:
    def test_each_refusal_sits_at_its_own_position(self, door):
        burst = [
            b'{"op":"insert","id":1,"eid":5,"attributes":{"a":1}}',
            b'{"op":"insert","id":2,"eid":5,"attributes":{"a":2}}',
            b'{"op":"insert","id":3,"attributes":{}}',
            b"this is not json",
            b'{"op":"insert","id":5,"eid":6,"attributes":{"a":3}}',
            b'{"op":"insert","id":6,"eid":-1,"attributes":{"a":4}}',
            b'{"op":"query","id":7,"attributes":["a"]}',
        ]
        with socket.create_connection(door.address, timeout=10) as sock:
            sock.sendall(b"\n".join(burst) + b"\n")
            reader = sock.makefile("rb")
            answers = [json.loads(reader.readline()) for _ in burst]
        assert [a["id"] for a in answers] == [1, 2, 3, 0, 5, 6, 7]
        assert [a["status"] for a in answers] == [
            "applied", "rejected", "rejected", "bad_request", "applied",
            "rejected", "ok",
        ]
        assert answers[1]["error"]["code"] == "duplicate_entity"
        assert answers[2]["error"]["code"] == "empty_synopsis"
        assert answers[3]["error"]["code"] == "protocol"
        assert answers[5]["error"]["code"] == "invalid_entity_id"
        assert sorted(row["a"] for row in answers[6]["rows"]) == [1, 3]

    def test_an_over_long_frame_is_answered_in_position_then_closes(self, door):
        over_long = (
            b'{"op": "insert", "id": 2, "attributes": {"a": "'
            + b"x" * MAX_LINE_BYTES + b'"}}\n'
        )
        with socket.create_connection(door.address, timeout=10) as sock:
            sock.sendall(encode_request("ping", 1) + over_long)
            reader = sock.makefile("rb")
            ping, refusal = (json.loads(reader.readline()) for _ in range(2))
            try:
                rest = reader.readline()
            except ConnectionResetError:  # unread bytes make the close a reset
                rest = b""
        assert (ping["id"], ping["status"]) == (1, "ok")
        assert (refusal["id"], refusal["status"]) == (0, "bad_request")
        assert refusal["error"]["code"] == "frame_too_long"
        assert rest == b""  # framing is lost: the connection is closed
        assert door.front.counters.bad_requests == 1

    def test_a_half_closed_burst_gets_every_answer(self, door):
        """A client that sends its last request and shuts its side of
        the socket still hears every answer, past the in-flight bound."""
        count = door.front._inflight + 8
        with socket.create_connection(door.address, timeout=10) as sock:
            sock.sendall(
                _inserts(count)
                + encode_request("query", count + 1, attributes=["a"])
            )
            sock.shutdown(socket.SHUT_WR)
            answers = [json.loads(line) for line in sock.makefile("rb")]
        assert [a["id"] for a in answers] == list(range(1, count + 2))
        assert [a["status"] for a in answers] == ["applied"] * count + ["ok"]
        assert answers[-1]["row_count"] == count

    def test_a_session_owes_at_most_its_bound(self, door):
        """With the node's commits held, a session reads no further than
        its bound; TCP holds the rest of the burst until answers leave."""
        bound = door.front._inflight
        counters = door.front.counters
        before = counters.requests_total
        gate = door.node._apply_batch = _Gate(door.node._apply_batch)
        with socket.create_connection(door.address, timeout=10) as sock:
            sock.sendall(_inserts(3 * bound))
            try:
                assert gate.entered.wait(10)
                assert wait_until(
                    lambda: counters.requests_total - before == bound
                )
                time.sleep(0.2)  # nothing more is read while it is full
                assert counters.requests_total - before == bound
            finally:
                gate.release.set()
            reader = sock.makefile("rb")
            answers = [json.loads(reader.readline()) for _ in range(3 * bound)]
        assert [a["id"] for a in answers] == list(range(1, 3 * bound + 1))
        assert {a["status"] for a in answers} == {"applied"}

    def test_client_that_never_reads_its_acks_is_reaped(self, door, caplog):
        """A client that vanishes mid-burst is reaped without an asyncio
        warning, and every write the tier read is applied."""
        front, node = door.front, door.node
        # what earlier tests left uncollected (a killed node's connection
        # task complains the same way) is not this tier's doing
        gc.collect()
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            sock = socket.create_connection(door.address, timeout=10)
            sock.sendall(_inserts(200))
            sock.close()  # 200 acks on their way to nobody
            assert wait_until(lambda: front.counters.connections_closed == 1)
            assert front.sessions == {}
            gc.collect()  # an unretrieved future complains when collected
        assert caplog.records == []
        # the session settled before it closed: what it read is applied
        assert node._write_queue.qsize() == 0
        assert node.counters.writes_applied == front.counters.requests_total
        assert node._latest_snapshot().entity_count == node.counters.writes_applied
        for pool in getattr(front, "pools", {}).values():
            assert pool.as_dict()["channels"] == 0  # its channels closed
