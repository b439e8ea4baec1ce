"""Wire robustness of the routing tier, on both of its faces.

Client-facing: malformed frames, oversized frames, mid-frame
disconnects, pipelining — the router answers with typed errors and the
accept loop survives, exactly like the serving node it fronts.

Upstream-facing: a node that answers garbage, truncates mid-exchange,
streams an oversized response, or hangs must surface as the *same*
typed unavailability a dead node does — bounded by the upstream
timeout, never as a crash or a hung fan-out.
"""

import json
import socket
import socketserver
import threading

import pytest

import repro.router.router as router_module
from repro.router import (
    CinderellaRouter,
    ClusterHarness,
    NodeAddress,
    PlacementMap,
    RouterConfig,
)
from repro.server import ServerThread
from repro.server.protocol import MAX_LINE_BYTES


@pytest.fixture()
def cluster(tmp_path):
    with ClusterHarness(tmp_path, n_nodes=2, replication_factor=2) as harness:
        yield harness


def _exchange_lines(address, payload, responses=1, timeout=10):
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        return [json.loads(reader.readline()) for _ in range(responses)]


class TestClientFacingFrames:
    def test_garbage_line_answers_bad_request(self, cluster):
        (document,) = _exchange_lines(
            cluster.router_address, b"}}not json{{\n"
        )
        assert document["ok"] is False
        assert document["status"] == "bad_request"

    def test_unknown_op_answers_bad_request(self, cluster):
        (document,) = _exchange_lines(
            cluster.router_address, b'{"op": "frobnicate", "id": 9}\n'
        )
        assert document["status"] == "bad_request"

    def test_oversized_frame_is_refused_with_typed_error(self, cluster):
        frame = (
            b'{"op": "insert", "id": 1, "attributes": {"a": "'
            + b"x" * MAX_LINE_BYTES
            + b'"}}\n'
        )
        (document,) = _exchange_lines(cluster.router_address, frame)
        assert document["status"] == "bad_request"
        assert document["error"]["code"] == "frame_too_long"

    def test_blank_lines_ignored_and_pipelining_preserved(self, cluster):
        documents = _exchange_lines(
            cluster.router_address,
            b"\n"
            b'{"op": "ping", "id": 1}\n'
            b'{"op": "insert", "id": 2, "attributes": {"a": 1}}\n'
            b"\n"
            b'{"op": "ping", "id": 3}\n',
            responses=3,
        )
        assert [d["id"] for d in documents] == [1, 2, 3]
        assert documents[1]["status"] == "applied"

    def test_mid_frame_disconnect_does_not_wedge_the_router(self, cluster):
        with socket.create_connection(cluster.router_address, timeout=10) as s:
            s.sendall(b'{"op": "insert", "id": 1, "attr')  # no newline
        # the half-frame connection is gone; fresh clients still served
        with cluster.client() as client:
            assert client.ping().ok
            assert client.insert({"a": 1}).status == "applied"

    def test_routing_internals_never_leak_as_tracebacks(self, cluster):
        # a shard_filter from a *client* is router-owned and stripped,
        # not an error; the reply is a normal scatter result
        (document,) = _exchange_lines(
            cluster.router_address,
            b'{"op": "query", "id": 4, "attributes": ["a"],'
            b' "shard_filter": {"n_shards": 1, "shards": [0]}}\n',
        )
        assert document["ok"] is True
        assert document["status"] == "ok"


class _MisbehavingNode(socketserver.ThreadingTCPServer):
    """A TCP endpoint that accepts connections and then misbehaves."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, behavior: str) -> None:
        self.behavior = behavior
        super().__init__(("127.0.0.1", 0), _MisbehaviorHandler)


class _MisbehaviorHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        behavior = self.server.behavior
        try:
            self.request.recv(65536)  # read the router's frame
            if behavior == "garbage":
                self.request.sendall(b"ceci n'est pas une reponse\n")
            elif behavior == "oversized":
                self.request.sendall(b"x" * (MAX_LINE_BYTES + 64) + b"\n")
            elif behavior == "truncate":
                self.request.sendall(b'{"id": 1, "status"')
                self.request.close()
            elif behavior == "hang":
                threading.Event().wait(5.0)
        except OSError:
            pass


@pytest.fixture()
def misbehaving_router(request, monkeypatch):
    """A router whose only upstream misbehaves per the fixture param."""
    monkeypatch.setattr(router_module, "_RETRY_BASE_S", 0.005)
    monkeypatch.setattr(router_module, "_RETRY_MAX_S", 0.01)
    node = _MisbehavingNode(request.param)
    thread = threading.Thread(target=node.serve_forever, daemon=True)
    thread.start()
    placement = PlacementMap([
        NodeAddress(name="evil", host="127.0.0.1",
                    port=node.server_address[1]),
    ])
    router = CinderellaRouter(
        placement, config=RouterConfig(upstream_timeout_s=0.25)
    )
    with ServerThread(router) as running:
        yield running
    node.shutdown()
    node.server_close()


@pytest.mark.parametrize(
    "misbehaving_router", ["garbage", "oversized", "truncate", "hang"],
    indirect=True,
)
class TestUpstreamMisbehavior:
    def test_write_surfaces_typed_unavailability(self, misbehaving_router):
        (document,) = _exchange_lines(
            misbehaving_router.address,
            b'{"op": "insert", "id": 1, "attributes": {"a": 1}, "eid": 3}\n',
            timeout=30,
        )
        assert document["status"] == "node_unavailable"
        assert document["error"]["code"] == "no_reachable_replica"

    def test_scatter_never_hangs_and_types_the_failure(
        self, misbehaving_router
    ):
        (document,) = _exchange_lines(
            misbehaving_router.address,
            b'{"op": "query", "id": 2, "attributes": ["a"]}\n',
            timeout=30,
        )
        assert document["status"] == "node_unavailable"
        assert document["shards_answered"] == 0
        # the router itself is alive and answers in-process ops
        (pong,) = _exchange_lines(
            misbehaving_router.address, b'{"op": "ping", "id": 3}\n'
        )
        assert pong["ok"] is True


class TestPartialScatterOnTheWire:
    def test_half_dead_placement_degrades_instead_of_failing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(router_module, "_UPSTREAM_ATTEMPTS", 1)
        # one real node plus one port nobody listens on, rf=1: half the
        # shards answer, half are explicitly unreachable
        with ClusterHarness(tmp_path, n_nodes=1, replication_factor=1) as h:
            real = h.addresses["node0"]
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                dead_port = probe.getsockname()[1]
            placement = PlacementMap(
                [real, NodeAddress("ghost", "127.0.0.1", dead_port)],
                n_shards=4,
            )
            router = CinderellaRouter(
                placement, config=RouterConfig(upstream_timeout_s=0.25)
            )
            with ServerThread(router) as running:
                documents = _exchange_lines(
                    running.address,
                    b'{"op": "insert", "id": 1, "attributes": {"a": 1},'
                    b' "eid": 0}\n'
                    b'{"op": "insert", "id": 2, "attributes": {"a": 2},'
                    b' "eid": 2}\n',
                    responses=2,
                    timeout=30,
                )
                assert all(d["status"] == "applied" for d in documents)
                (query,) = _exchange_lines(
                    running.address,
                    b'{"op": "query", "id": 3, "attributes": ["a"]}\n',
                    timeout=30,
                )
                assert query["status"] == "degraded"
                assert query["error"]["code"] == "partial_result"
                assert query["row_count"] == 2
                assert query["unreachable_shards"] == [1, 3]
