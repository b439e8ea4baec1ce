"""The pass-through router: routed rows travel as the nodes' bytes.

A node renders a read's ``rows`` array last in its reply;
:func:`repro.server.protocol.decode_response` decodes only the header
before it and keeps the array as bytes, and the router's scatter merge
splices those bytes under a header summed from the replies.  Upstream
frames are corked: one write per channel per loop turn.

* :class:`TestDecodeResponse` — the split: what it keeps raw, when it
  decodes whole, and that a header string cannot fool it.
* :class:`TestSplicedMerge` — a Hypothesis differential: the spliced
  answer decodes to the object the reference decode-and-merge builds,
  over adversarial rows and every reply layout.
* :class:`TestCorkedChannel` — frames sent in one loop turn leave in one
  write, in send order; a failed channel drops what it had not written.
* :class:`TestLiveCluster` — ``query``, ``sql`` and a degraded scatter
  through a live 3-node cluster, against the nodes' own answers merged
  by the reference; a healthy cluster re-encodes no row.
"""

import asyncio
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.router import (
    ClusterHarness,
    CinderellaRouter,
    NodeAddress,
    PlacementMap,
)
from repro.router.pool import NodePool, UpstreamError
from repro.server import protocol
from repro.server.frontdoor import Raw
from repro.server.protocol import Response, decode_response, encode_response

#: values a row splice must carry through untouched
ADVERSARIAL_VALUES = [
    '],"row_count":9,"rows":[',
    ',"rows":[{"forged":1}]',
    'a "quoted" word',
    "back\\slash\\",
    "line\nbreak\ttab",
    "ünïcødé ✓ 名前",
    "",
]
ATTRIBUTE_NAMES = ["rows", "row_count", "stats", "note", 'q"uote', "naïve"]


def reference_merge(op, replies, n_shards, unreachable):
    """The decode-and-merge the splice replaces: every reply decoded,
    rows concatenated, counts and stats summed — as the wire object the
    router's answer must decode to (with request id 7)."""
    rows = []
    stats = {}
    pruned = 0
    for reply in replies:
        rows.extend(reply.get("rows", []))
        pruned += reply.get("pruned_partitions", 0)
        for key, value in (reply.get("stats") or {}).items():
            if isinstance(value, (int, float)):
                stats[key] = stats.get(key, 0) + value
    status = protocol.DEGRADED if unreachable else protocol.OK
    document = {
        "id": 7, "ok": status == protocol.OK, "status": status,
        "rows": rows, "row_count": len(rows),
        "shards_total": n_shards,
        "shards_answered": n_shards - len(unreachable),
    }
    if op == "query":
        document["stats"] = stats
    else:
        document["pruned_partitions"] = pruned
    if unreachable:
        document["unreachable_shards"] = unreachable
        document["error"] = protocol.error_body(
            "partial_result",
            f"{len(unreachable)} of {n_shards} shards had no reachable "
            f"replica; rows are incomplete",
        )
    return document


def spliced(outcome) -> dict:
    """The router's answer as the client decodes it."""
    assert isinstance(outcome, Raw)
    return json.loads(b'{"id":7' + outcome.fragment)


def _router(n_shards: int = 4) -> CinderellaRouter:
    nodes = [NodeAddress(f"node{i}", "127.0.0.1", 1) for i in range(2)]
    return CinderellaRouter(PlacementMap(nodes, n_shards=n_shards))


class TestDecodeResponse:
    def test_rows_last_stay_bytes_until_read(self):
        line = encode_response(
            3, protocol.OK, row_count=2, stats={"cache_hits": 1},
            rows=[{"a": 1}, {"rows": "x"}],
        )
        response = decode_response(line)
        assert response.rows_raw == b'[{"a":1},{"rows":"x"}]'
        assert response.get("row_count") == 2
        assert "rows" not in response._fields  # nothing decoded yet
        assert response.get("rows") == [{"a": 1}, {"rows": "x"}]
        assert response.fields["stats"] == {"cache_hits": 1}

    def test_other_layouts_decode_whole(self):
        for line in (
            encode_response(1, protocol.OK, rows=[{"a": 1}], row_count=1),
            encode_response(1, protocol.OK, rows=[{"a": 1}]),
            b'{"id": 1, "status": "ok", "row_count": 1, "rows": [{"a": 1}]}\n',
        ):
            response = decode_response(line)
            assert response.rows_raw is None
            assert response.get("rows") == [{"a": 1}]

    def test_a_header_string_cannot_fake_the_rows_member(self):
        line = encode_response(
            2, protocol.BAD_REQUEST,
            error=protocol.error_body("x", 'see ,"rows":[ here'),
        )
        response = decode_response(line)
        assert response.rows_raw is None
        assert response.error["message"] == 'see ,"rows":[ here'

    def test_oversized_reply_still_refused(self):
        line = encode_response(
            1, protocol.OK, row_count=1,
            rows=["x" * protocol.MAX_LINE_BYTES],
        )
        with pytest.raises(protocol.ProtocolError):
            decode_response(line)


_rows = st.lists(
    st.dictionaries(
        st.sampled_from(ATTRIBUTE_NAMES),
        st.one_of(
            st.none(), st.booleans(),
            st.integers(-(2**62), 2**62),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(ADVERSARIAL_VALUES),
            st.text(max_size=6),
        ),
        min_size=1,
    ),
    max_size=4,
)
_stats = st.fixed_dictionaries({
    "partitions_total": st.integers(0, 9),
    "partitions_scanned": st.integers(0, 9),
    "cache_hits": st.integers(0, 9),
})
#: how a reply carries its rows: as a node renders them (rows last), in
#: the layout before rows moved last, without a row count, or decoded
_LAYOUTS = ("node", "rows_first", "bare", "decoded")


def _reply(op, rows, stats, pruned, layout) -> Response:
    header = (
        {"stats": stats} if op == "query" else {"pruned_partitions": pruned}
    )
    if layout == "decoded":
        return Response(
            id=1, status=protocol.OK,
            fields={"rows": rows, "row_count": len(rows), **header},
        )
    if layout == "node":
        line = encode_response(
            1, protocol.OK, row_count=len(rows), **header, rows=rows,
        )
    elif layout == "rows_first":
        line = encode_response(
            1, protocol.OK, rows=rows, row_count=len(rows), **header,
        )
    else:
        line = encode_response(1, protocol.OK, **header, rows=rows)
    return decode_response(line)


class TestSplicedMerge:
    @given(
        op=st.sampled_from(["query", "sql"]),
        replies=st.lists(
            st.tuples(
                _rows, _stats, st.integers(0, 5), st.sampled_from(_LAYOUTS),
            ),
            max_size=4,
        ),
        unreachable=st.sets(st.integers(0, 3), max_size=3),
    )
    def test_splice_decodes_to_the_reference_merge(
        self, op, replies, unreachable
    ):
        router = _router(n_shards=4)
        gathered = [
            _reply(op, rows, stats, pruned, layout)
            for rows, stats, pruned, layout in replies
        ]
        outcome = router._merge_scatter(op, gathered, sorted(unreachable))
        decoded = [
            {"rows": rows, "stats": stats, "pruned_partitions": pruned}
            for rows, stats, pruned, _layout in replies
        ]
        assert spliced(outcome) == reference_merge(
            op, decoded, 4, sorted(unreachable)
        )
        assert router.counters.rows_reencoded == sum(
            len(rows) for rows, _s, _p, layout in replies if layout != "node"
        )

    def test_every_shard_unreachable_is_still_retryable(self):
        router = _router(n_shards=4)
        status, fields, error = router._merge_scatter("query", [], [0, 1, 2, 3])
        assert status == protocol.NODE_UNAVAILABLE
        assert fields == {"shards_total": 4, "shards_answered": 0}
        assert error["code"] == "no_reachable_replica"


class TestCorkedChannel:
    def test_one_write_per_loop_turn_in_send_order(self):
        async def scenario():
            hung_up = asyncio.Event()

            async def echo(reader, writer):
                while line := await reader.readline():
                    request = json.loads(line)
                    writer.write(encode_response(
                        request["id"], protocol.OK,
                        payload=request.get("payload"),
                    ))
                writer.close()
                await writer.wait_closed()
                hung_up.set()

            server = await asyncio.start_server(echo, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pool = NodePool(NodeAddress("echo", "127.0.0.1", port))
            channel = pool.channel()
            # frames sent while the channel dials leave together too
            dialing = [channel.send("ping", {"payload": i}) for i in range(3)]
            assert [
                r.get("payload") for r in await asyncio.gather(*dialing)
            ] == [0, 1, 2]
            writes = []
            write = channel._writer.write
            channel._writer.write = lambda data: (
                writes.append(data), write(data)
            )[1]
            burst = [channel.send("ping", {"payload": i}) for i in range(5)]
            assert writes == []  # nothing leaves before the turn ends
            replies = await asyncio.gather(*burst)
            assert [r.get("payload") for r in replies] == list(range(5))
            assert len(writes) == 1
            assert [
                json.loads(frame)["payload"]
                for frame in writes[0].splitlines()
            ] == list(range(5))
            # a channel that fails drops its unwritten frames with their
            # futures
            doomed = channel.send("ping", {"payload": 9})
            channel.close()
            with pytest.raises(UpstreamError):
                await doomed
            await asyncio.wait_for(hung_up.wait(), timeout=10)
            assert len(writes) == 1
            pool.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


def _primary_assignment(placement: PlacementMap) -> dict[str, list[int]]:
    """The shards a healthy scatter asks each node for, in send order."""
    assignment: dict[str, list[int]] = {}
    for shard, replicas in enumerate(placement.replica_sets):
        assignment.setdefault(replicas[0].name, []).append(shard)
    return assignment


def _node_answers(cluster, op, fields, assignment):
    """Each node's own answer for its shards, decoded whole."""
    n_shards = cluster.placement.n_shards
    replies = []
    for name, shards in assignment.items():
        with cluster.node_client(name) as direct:
            response = direct.request(op, **fields, shard_filter={
                "n_shards": n_shards, "shards": shards,
            })
        replies.append(dict(response.fields))
    return replies


def _load(client) -> None:
    for eid in range(60):
        attributes = {
            "note": ADVERSARIAL_VALUES[eid % len(ADVERSARIAL_VALUES)],
            "weight": eid,
        }
        if eid % 3 == 0:
            attributes["rows"] = f"r{eid}"
        if eid % 4 == 0:
            attributes["row_count"] = eid
        client.insert(attributes, eid=eid)
    # one maintenance pass now, so none reshapes partitions between the
    # routed read and the nodes' own answers
    client.maintain()


def _without_stats(document: dict) -> dict:
    return {key: value for key, value in document.items() if key != "stats"}


class TestLiveCluster:
    @pytest.mark.parametrize("op, fields", [
        ("query", {"attributes": ["note", "rows", "row_count"]}),
        ("sql", {
            "sql": "SELECT note, weight FROM universalTable WHERE weight > 20",
        }),
    ])
    def test_routed_read_equals_the_reference_merge(self, tmp_path, op, fields):
        with ClusterHarness(tmp_path, n_nodes=3) as cluster:
            with cluster.client() as client:
                _load(client)
                line = client.request(op, **fields)
            replies = _node_answers(
                cluster, op, fields, _primary_assignment(cluster.placement)
            )
            expected = reference_merge(op, replies, cluster.placement.n_shards, [])
            answer = {"id": 7, "ok": line.ok, "status": line.status,
                      **line.fields}
            assert _without_stats(answer) == _without_stats(expected)
            assert answer["row_count"] > 0
            if op == "query":
                assert set(answer["stats"]) == set(expected["stats"])
            assert cluster.router.counters.rows_reencoded == 0

    def test_degraded_scatter_splices_the_surviving_shards(self, tmp_path):
        with ClusterHarness(tmp_path, n_nodes=3, replication_factor=1) as cluster:
            with cluster.client(check=False) as client:
                _load(client)
                cluster.kill_node("node1")
                fields = {"attributes": ["note", "rows"]}
                response = client.request("query", **fields)
            assert response.status == protocol.DEGRADED
            assignment = _primary_assignment(cluster.placement)
            lost = assignment.pop("node1")
            replies = _node_answers(cluster, "query", fields, assignment)
            expected = reference_merge(
                "query", replies, cluster.placement.n_shards, lost
            )
            answer = {
                "id": 7, "ok": response.ok, "status": response.status,
                "error": response.error, **response.fields,
            }
            assert _without_stats(answer) == _without_stats(expected)
            assert cluster.router.counters.rows_reencoded == 0
