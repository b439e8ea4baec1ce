"""End-to-end tests of the serving layer over real sockets.

Each test runs a :class:`~repro.server.testing.ServerThread` (the server
on its own event loop in a daemon thread) and drives it with blocking
:class:`~repro.server.client.ServerClient` connections — the exact wire
path production traffic takes.
"""

import asyncio
import gc
import json
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.core.config import CinderellaConfig
from repro.server import CinderellaServer, ServerConfig, ServerThread
from repro.server.client import ServerClient, ServerError
from repro.table.partitioned import CinderellaTable

from tests.conftest import wait_until


@pytest.fixture()
def harness():
    config = ServerConfig(maintenance_interval_s=0)  # passes on demand only
    with ServerThread(config=config) as running:
        yield running


@pytest.fixture()
def client(harness):
    with ServerClient(*harness.address) as connected:
        yield connected


class TestBasicOps:
    def test_ping_echoes_payload(self, client):
        response = client.ping(payload={"k": [1, 2]})
        assert response.ok
        assert response.get("payload") == {"k": [1, 2]}

    def test_insert_update_delete_cycle(self, client):
        inserted = client.insert({"name": "Canon S120", "resolution": 12.1})
        assert inserted.status == "applied"
        eid = inserted.get("eid")
        assert inserted.get("partition") is not None
        updated = client.update(eid, {"name": "Canon S120", "zoom": 5})
        assert updated.status == "applied"
        rows = client.query(["zoom"])
        assert rows == [{"zoom": 5}]
        deleted = client.delete(eid)
        assert deleted.status == "applied"
        assert client.query(["zoom"]) == []

    def test_explicit_entity_id_respected(self, client):
        assert client.insert({"a": 1}, eid=77).get("eid") == 77

    def test_query_carries_execution_stats(self, client):
        for i in range(10):
            client.insert({"a": i} if i % 2 else {"b": i})
        response = client.query_response(["a"])
        stats = response.get("stats")
        assert response.get("row_count") == 5
        assert stats["partitions_total"] >= 1
        assert stats["partitions_scanned"] >= 1

    def test_sql_passthrough(self, client):
        for i in range(5):
            client.insert({"weight": i * 100, "name": f"p{i}"})
        response = client.sql(
            "SELECT name, weight FROM universalTable "
            "WHERE weight > 150 ORDER BY weight DESC"
        )
        rows = response.get("rows")
        assert [row["weight"] for row in rows] == [400, 300, 200]


class TestRejections:
    def test_duplicate_entity_rejected(self, client):
        client.insert({"a": 1}, eid=5)
        with pytest.raises(ServerError) as excinfo:
            client.insert({"a": 2}, eid=5)
        assert excinfo.value.status == "rejected"
        assert excinfo.value.code == "duplicate_entity"

    def test_unknown_entity_rejected(self, client):
        for method in (lambda: client.update(999, {"a": 1}),
                       lambda: client.delete(999)):
            with pytest.raises(ServerError) as excinfo:
                method()
            assert excinfo.value.code == "unknown_entity"

    def test_empty_attributes_rejected_before_admission(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.insert({})
        assert excinfo.value.status == "rejected"
        assert excinfo.value.code == "empty_synopsis"

    def test_bad_entity_id_rejected(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.request("delete", eid="seven")
        assert excinfo.value.code == "invalid_entity_id"

    def test_unstorable_entity_id_refused_and_the_node_keeps_serving(self, client):
        """Such an insert was once acked and journaled, and every query
        after it failed on the record it left behind."""
        client.insert({"a": 1}, eid=1)
        for op, fields in (
            ("insert", {"eid": 2**70, "attributes": {"a": 2}}),
            ("update", {"eid": 2**70, "attributes": {"a": 2}}),
            ("delete", {"eid": 2**70}),
        ):
            with pytest.raises(ServerError) as excinfo:
                client.request(op, **fields)
            assert excinfo.value.status == "rejected"
            assert excinfo.value.code == "invalid_entity_id"
        assert client.query(["a"]) == [{"a": 1}]

    def test_unstorable_value_is_a_rejection_not_an_internal_error(
        self, harness, client
    ):
        from repro.obs import runtime as obs

        client.insert({"a": 1}, eid=1)
        state = obs.enable(trace=False)
        try:
            for op, fields in (
                ("update", {"eid": 1, "attributes": {"a": [1, 2]}}),
                ("insert", {"attributes": {"a": {"nested": 1}}}),
                ("insert", {"attributes": {"a": 2**63}}),
            ):
                with pytest.raises(ServerError) as excinfo:
                    client.request(op, **fields)
                assert excinfo.value.status == "rejected"
                assert excinfo.value.code == "bad_attributes"
        finally:
            obs.disable()
        assert state.events.of_kind("server.write_rollback") == []
        # refused at the door: nothing reached a batch
        assert client.stats()["counters"]["writes_rejected"] == 0
        assert client.query(["a"]) == [{"a": 1}]

    def test_sync_delta_with_an_unstorable_eid_is_a_bad_request(self, client):
        for eid in (-1, 2**70, True):
            with pytest.raises(ServerError) as excinfo:
                client.request(
                    "sync_delta", entities=[{"eid": eid, "attributes": {"a": 1}}]
                )
            assert excinfo.value.status == "bad_request"
            assert excinfo.value.code == "bad_sync_delta"
        assert client.stats()["entities"] == 0

    @pytest.mark.parametrize("fields", [
        {
            "reset": {"n_shards": 2, "shards": [0]},
            "entities": [{"eid": 7, "attributes": {"a": [1]}}],
        },
        {
            "entities": [
                {"eid": 10, "attributes": {"a": 10}},
                {"eid": 11, "attributes": {"a": {"nested": 1}}},
            ],
        },
        {
            "reset": {"n_shards": 2, "shards": [0]},
            "entities": [{"eid": 7, "attributes": {"a": "x" * 9000}}],
        },
    ], ids=[
        "unstorable_after_a_reset", "unstorable_after_a_good_entity",
        "larger_than_a_page_after_a_reset",
    ])
    def test_refused_sync_delta_applies_nothing(self, tmp_path, fields):
        """A delta with a record the table refuses used to be applied up
        to that record and rolled back in the catalog only: the heaps
        kept the reset's deletions and the earlier puts, so the next
        publish served rows the catalog did not hold (or dropped rows it
        did), and a later insert of a put's eid was refused as a
        duplicate."""
        wal = tmp_path / "node.wal"
        server = CinderellaServer(config=ServerConfig(
            maintenance_interval_s=0, wal_path=wal,
        ))
        with ServerThread(server=server) as harness, \
                ServerClient(*harness.address) as client:
            for eid in range(6):
                client.insert({"a": eid}, eid=eid)
            journal = wal.read_bytes()
            with pytest.raises(ServerError) as excinfo:
                client.request("sync_delta", **fields)
            assert excinfo.value.status == "bad_request"
            assert excinfo.value.code == "bad_sync_delta"
            client.request("sync_delta", entities=[])  # publishes, journals nothing
            assert sorted(row["a"] for row in client.query(["a"])) == list(range(6))
            assert harness.server.table.check_consistency() == []
            assert wal.read_bytes() == journal
            assert client.insert({"a": 10}, eid=10).status == "applied"

    def test_bad_query_shape(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.request("query", attributes=[])
        assert excinfo.value.status == "bad_request"

    def test_bad_query_mode(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.request("query", attributes=["a"], mode="some")
        assert excinfo.value.code == "bad_query"

    def test_sql_syntax_error(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.sql("SELEKT * FROM nope")
        assert excinfo.value.status == "bad_request"
        assert excinfo.value.code == "sql_syntax"

    def test_rejected_write_rolls_back_cleanly(self, harness, client):
        client.insert({"a": 1}, eid=1)
        before = client.stats()["version_clock"]
        with pytest.raises(ServerError):
            client.insert({"b": 2}, eid=1)  # duplicate: rolls back
        after = client.stats()
        assert after["entities"] == 1
        assert after["counters"]["writes_rejected"] == 1
        assert after["version_clock"] == before  # undo log left no trace


class TestShardScopedReads:
    """A read's ``shard_filter`` — what every routed read carries —
    is served by the same cached path as an unscoped one."""

    SCOPE = {"n_shards": 4, "shards": [1, 3]}

    def test_query_and_sql_answer_for_the_scope(self, client):
        for eid in range(12):
            client.insert({"a": eid}, eid=eid)
        scoped = client.request("query", attributes=["a"], shard_filter=self.SCOPE)
        assert sorted(row["a"] for row in scoped.get("rows")) == [1, 3, 5, 7, 9, 11]
        assert scoped.get("row_count") == 6
        assert scoped.get("stats")["cache_misses"] >= 1
        rest = client.request(
            "query", attributes=["a"],
            shard_filter={"n_shards": 4, "shards": [0, 2]},
        )
        assert sorted(row["a"] for row in rest.get("rows")) == [0, 2, 4, 6, 8, 10]
        assert len(client.query(["a"])) == 12
        answer = client.request(
            "sql", sql="SELECT a FROM t ORDER BY a DESC", shard_filter=self.SCOPE
        )
        assert [row["a"] for row in answer.get("rows")] == [11, 9, 7, 5, 3, 1]

    def test_repeat_scoped_query_is_a_response_cache_hit(self, client):
        for eid in range(8):
            client.insert({"a": eid}, eid=eid)
        first = client.request("query", attributes=["a"], shard_filter=self.SCOPE)
        before = client.stats()["counters"]["snapshot_response_cache_hits"]
        again = client.request("query", attributes=["a"], shard_filter=self.SCOPE)
        after = client.stats()["counters"]["snapshot_response_cache_hits"]
        assert after == before + 1
        assert again.get("rows") == first.get("rows")
        assert again.get("stats")["cache_hits"] >= 1
        # another scope, or none, is another answer — not this one's
        client.request("query", attributes=["a"], shard_filter={
            "n_shards": 4, "shards": [0],
        })
        client.query(["a"])
        assert client.stats()["counters"]["snapshot_response_cache_hits"] == after

    @pytest.mark.parametrize("spec", [
        "0,1", [4, [1]], {}, {"shards": [1]},
        {"n_shards": 0, "shards": [1]}, {"n_shards": True, "shards": [1]},
        {"n_shards": "4", "shards": [1]}, {"n_shards": 4},
        {"n_shards": 4, "shards": "1"}, {"n_shards": 4, "shards": [1, True]},
    ])
    def test_malformed_scope_is_one_bad_request_everywhere(self, client, spec):
        pair = spec if isinstance(spec, dict) else {"n_shards": spec}
        for op, fields in (
            ("query", {"attributes": ["a"], "shard_filter": spec}),
            ("sql", {"sql": "SELECT a FROM t", "shard_filter": spec}),
            ("sync_snapshot", pair),
            ("sync_delta", {"entities": [], "reset": spec}),
        ):
            with pytest.raises(ServerError) as excinfo:
                client.request(op, **fields)
            assert excinfo.value.status == "bad_request"
            assert excinfo.value.code == "bad_shard_spec"


class TestWireRobustness:
    def test_garbage_line_answers_bad_request(self, harness):
        with socket.create_connection(harness.address, timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            line = sock.makefile("rb").readline()
        document = json.loads(line)
        assert document["ok"] is False
        assert document["status"] == "bad_request"

    def test_unknown_op_answers_bad_request(self, harness):
        with socket.create_connection(harness.address, timeout=10) as sock:
            sock.sendall(b'{"op": "frobnicate", "id": 3}\n')
            line = sock.makefile("rb").readline()
        assert json.loads(line)["status"] == "bad_request"

    def test_blank_lines_are_ignored(self, harness):
        with socket.create_connection(harness.address, timeout=10) as sock:
            sock.sendall(b"\n\n" + b'{"op": "ping", "id": 4}\n')
            line = sock.makefile("rb").readline()
        assert json.loads(line)["id"] == 4

    def test_response_ids_match_pipelined_requests(self, harness):
        with socket.create_connection(harness.address, timeout=10) as sock:
            sock.sendall(
                b'{"op": "ping", "id": 1}\n'
                b'{"op": "insert", "id": 2, "attributes": {"a": 1}}\n'
                b'{"op": "ping", "id": 3}\n'
            )
            reader = sock.makefile("rb")
            ids = [json.loads(reader.readline())["id"] for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_internal_errors_do_not_kill_the_connection(self, harness, client,
                                                        monkeypatch):
        from repro.query.snapshot import TableSnapshot

        monkeypatch.setattr(
            TableSnapshot, "serve_query",
            lambda _self, _query: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(ServerError) as excinfo:
            client.query_response(["a"])
        assert excinfo.value.status == "error"
        assert excinfo.value.code == "internal"
        assert client.ping().ok  # the session survived


class TestAdmissionControl:
    def test_zero_capacity_sheds_with_overloaded(self):
        config = ServerConfig(max_pending=0, maintenance_interval_s=0)
        with ServerThread(config=config) as harness:
            with ServerClient(*harness.address, check=False) as client:
                response = client.insert({"a": 1})
                assert response.status == "overloaded"
                assert response.retryable
                assert "back off" in response.error["message"]
                response = client.retrying(
                    "insert", attributes={"a": 1},
                    attempts=3, base_delay_s=0.001,
                )
                assert response.status == "overloaded"
                stats = client.stats()
                assert stats["counters"]["writes_shed_overloaded"] >= 4
                assert stats["counters"]["shed_rate"] == 1.0
                assert stats["counters"]["writes_applied"] == 0

    def test_a_slow_batch_does_not_shed_one_batch_of_pipelined_writes(self):
        """The drain rate is measured on whatever batches came by, and a
        lone write behind a cold start reads like a slow server; a queue
        no deeper than one batch is admitted whatever the rate reads."""
        server = CinderellaServer(config=ServerConfig(maintenance_interval_s=0))
        apply_batch = server._apply_batch

        def slow_batch(batch):
            time.sleep(0.05)
            return apply_batch(batch)

        server._apply_batch = slow_batch
        with ServerThread(server=server) as harness:
            with ServerClient(*harness.address) as client:
                client.insert({"a": 0})  # 20 writes/s, as far as it can tell
                assert server._admission.window == server.config.batch_max
                acks = client.pipeline(
                    ("insert", {"attributes": {"a": i}})
                    for i in range(server.config.batch_max)
                )
        assert [r.status for r in acks] == ["applied"] * len(acks)
        assert server.counters.writes_shed_overloaded == 0

    def test_reads_still_served_while_writes_shed(self):
        config = ServerConfig(max_pending=0, maintenance_interval_s=0)
        with ServerThread(config=config) as harness:
            with ServerClient(*harness.address, check=False) as client:
                assert client.insert({"a": 1}).status == "overloaded"
                assert client.query(["a"]) == []  # served, just empty

    def test_writes_refused_while_draining(self):
        async def scenario():
            server = CinderellaServer(config=ServerConfig(
                maintenance_interval_s=0
            ))
            await server.start()
            server._draining = True
            from repro.server.frontdoor import Refused
            from repro.server.protocol import Request

            with pytest.raises(Refused) as excinfo:
                await server._handle_write(Request(
                    "insert", 1, {"attributes": {"a": 1}}
                ))
            assert excinfo.value.status == "shutting_down"
            server._draining = False
            await server.stop()

        asyncio.run(scenario())


class TestLifecycle:
    def test_shutdown_op_drains_and_stops(self, harness):
        with ServerClient(*harness.address) as client:
            client.insert({"a": 1})
            response = client.shutdown()
            assert response.ok and response.get("draining") is True
        harness.stop()  # idempotent join
        assert harness.server.table.check_consistency() == []

    @staticmethod
    def _stop_without_warnings(harness) -> float:
        """``harness.stop()``'s wall time; fails on a never-awaited
        coroutine (the drain it would have submitted, left unrun)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            started = time.monotonic()
            harness.stop(timeout_s=5.0)
            elapsed = time.monotonic() - started
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return elapsed

    def test_stop_after_a_shutdown_op_ended_the_loop(self, harness):
        thread = harness._thread
        with ServerClient(*harness.address) as client:
            assert client.shutdown().ok
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert self._stop_without_warnings(harness) < 1.0

    def test_stop_while_a_shutdown_op_closes_the_loop(self, harness):
        """The loop has stopped but not yet closed when ``stop`` submits
        its drain, so the submission is accepted and never runs: ``stop``
        must not wait on it past the loop thread's end."""
        loop = harness._loop
        close = loop.close
        closing, release = threading.Event(), threading.Event()

        def gated_close():
            closing.set()
            release.wait(10)
            close()

        loop.close = gated_close
        with ServerClient(*harness.address) as client:
            assert client.shutdown().ok
        assert closing.wait(10) and not loop.is_running()
        threading.Timer(0.2, release.set).start()
        assert self._stop_without_warnings(harness) < 1.0
        assert loop.is_closed()

    def test_maintain_merges_after_deletes(self):
        table = CinderellaTable(
            CinderellaConfig(
                max_partition_size=8.0, weight=0.3, use_synopsis_index=True
            )
        )
        server = CinderellaServer(
            table=table,
            config=ServerConfig(maintenance_interval_s=0, merge_min_fill=0.9),
        )
        with ServerThread(server=server) as harness:
            with ServerClient(*harness.address) as client:
                for i in range(60):
                    client.insert({f"attr{i % 6}": i, "common": 1}, eid=i)
                assert client.stats()["partitions"] > 1
                for i in range(0, 60, 2):
                    client.delete(i)
                report = client.maintain()
                assert report.ok
                stats = client.stats()
                assert stats["counters"]["maintenance_passes"] >= 1
        assert table.check_consistency() == []

    def test_maintenance_and_sync_delta_get_in_under_write_load(self):
        """The write lock is fair: with the batcher never idle, a waiting
        maintenance pass or sync delta still runs behind the current batch."""
        # six blocking writers against batches of two: the queue is never
        # empty when a batch ends, so the batcher goes from releasing the
        # lock straight to asking for it again
        config = ServerConfig(maintenance_interval_s=0, batch_max=2)
        stop = threading.Event()
        failures: list[str] = []

        def write_until_stopped(index: int, address) -> None:
            try:
                with ServerClient(*address, check=False) as writer:
                    eid = index * 1_000_000
                    while not stop.is_set():
                        status = writer.insert({"w": index}, eid=eid).status
                        if status not in ("applied", "overloaded"):
                            failures.append(f"insert {eid} -> {status}")
                        eid += 1
            except Exception as err:
                failures.append(f"{type(err).__name__}: {err}")

        with ServerThread(config=config) as harness:
            counters = harness.server.counters
            writers = [
                threading.Thread(
                    target=write_until_stopped, args=(i, harness.address)
                )
                for i in range(1, 7)
            ]
            for thread in writers:
                thread.start()
            try:
                # a starved request fails on the socket timeout, not a hang
                with ServerClient(*harness.address, timeout=20) as client:
                    while counters.batches_flushed < 5:
                        client.ping()
                    passes = counters.maintenance_passes
                    batches = counters.batches_flushed
                    assert client.maintain().ok
                    assert counters.maintenance_passes == passes + 1
                    delta = client.request(
                        "sync_delta",
                        entities=[{"eid": 7, "attributes": {"synced": 7}}],
                    )
                    assert delta.ok
                    assert counters.sync_deltas_applied == 1
                    while counters.batches_flushed < batches + 5:
                        client.ping()  # the writers never stopped
                    assert client.query(["synced"]) == [{"synced": 7}]
            finally:
                stop.set()
                for thread in writers:
                    thread.join(timeout=30)
        assert failures == []
        assert harness.server.table.check_consistency() == []

    def test_sessions_appear_in_stats(self, harness):
        with ServerClient(*harness.address) as first:
            first.ping()
            with ServerClient(*harness.address) as second:
                second.ping()
                sessions = first.stats()["sessions"]
                assert len(sessions) == 2
                assert {s["sid"] for s in sessions} == {1, 2}
        harness.stop()  # drain: handler tasks observe EOF before we assert
        assert harness.server.counters.connections_closed == 2


class _Gate:
    """Wraps a callable so that a test can hold every call at its door:
    ``entered`` is set when a call arrives, the call proceeds on
    ``release``."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, *args, **kwargs):
        self.entered.set()
        assert self.release.wait(30), "the test never released the gate"
        return self.wrapped(*args, **kwargs)


class TestPipelinedWrites:
    """A connection's consecutive writes share group commits; responses
    still leave in request order and a read sees every write before it."""

    def test_burst_answers_in_order_and_reads_its_own_writes(self):
        requests = []
        for i in range(600):
            requests.append(("insert", {"attributes": {"n": i}, "eid": i}))
            if (i + 1) % 50 == 0:
                requests.append(("query", {"attributes": ["n"]}))
        config = ServerConfig(
            maintenance_interval_s=0, admission_target_latency_s=0.25
        )
        with ServerThread(config=config) as harness:
            with ServerClient(*harness.address) as client:
                responses = client.pipeline(requests)
        assert [r.id for r in responses] == list(range(1, len(requests) + 1))
        applied = 0
        for (op, _fields), response in zip(requests, responses):
            if op == "insert":
                assert response.status == "applied"
                applied += 1
            else:
                assert response.get("row_count") == applied
        counters = harness.server.counters
        assert counters.writes_applied == 600
        assert counters.batches_flushed <= 40  # 600 with a round trip each
        assert counters.writes_shed_overloaded == 0

    def test_one_entity_written_thrice_in_one_burst(self, client):
        inserted, updated, deleted, query = client.pipeline([
            ("insert", {"attributes": {"x": 1}, "eid": 7}),
            ("update", {"eid": 7, "attributes": {"x": 2, "y": 2}}),
            ("delete", {"eid": 7}),
            ("query", {"attributes": ["x", "y"]}),
        ])
        assert [r.status for r in (inserted, updated, deleted)] == ["applied"] * 3
        assert query.ok and query.get("rows") == []

    def test_burst_past_the_window_is_shed_in_order(self):
        config = ServerConfig(max_pending=8, maintenance_interval_s=0)
        with ServerThread(config=config) as harness:
            with ServerClient(*harness.address) as client:
                responses = client.pipeline(
                    ("insert", {"attributes": {"a": i}, "eid": i})
                    for i in range(64)
                )
                rows = client.query(["a"])
        statuses = [r.status for r in responses]
        assert set(statuses) == {"applied", "overloaded"}
        applied = [i for i, status in enumerate(statuses) if status == "applied"]
        assert [r.get("eid") for r in responses if r.ok] == applied
        assert sorted(row["a"] for row in rows) == applied
        counters = harness.server.counters
        assert counters.writes_applied == len(applied)
        assert counters.writes_shed_overloaded == 64 - len(applied)

    def test_stop_flushes_queued_writes_and_their_acks(self):
        """A drain that begins with writes queued behind a batch in
        progress applies and acks every one of them before closing."""
        server = CinderellaServer(config=ServerConfig(maintenance_interval_s=0))
        gate = server._apply_batch = _Gate(server._apply_batch)
        acks: list = []
        with ServerThread(server=server) as harness:
            with ServerClient(*harness.address) as first, \
                    ServerClient(*harness.address, check=False) as burst, \
                    ServerClient(*harness.address) as admin:
                threads = [
                    threading.Thread(target=first.insert, args=({"a": 0},)),
                    threading.Thread(target=lambda: acks.extend(burst.pipeline(
                        ("insert", {"attributes": {"a": i}})
                        for i in range(1, 21)
                    ))),
                ]
                threads[0].start()
                assert gate.entered.wait(10)  # batch one is being applied
                threads[1].start()
                assert wait_until(lambda: server._write_queue.qsize() == 20)
                assert admin.shutdown().get("draining") is True
                gate.release.set()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
            # the shutdown op stops the server by itself; let its loop
            # finish before the harness asks the same of it
            assert wait_until(lambda: not harness._thread.is_alive())
        statuses = [r.status for r in acks]
        assert len(statuses) == 20
        assert set(statuses) <= {"applied", "shutting_down"}
        assert server.counters.writes_applied == 1 + statuses.count("applied")
        assert statuses == ["applied"] * 20  # queued before the drain began
        assert server._write_queue.qsize() == 0


class TestDurableBeforeVisible:
    """No connection reads a write that a crash could still lose: the
    snapshot is published behind the batch's WAL fsync."""

    @pytest.mark.parametrize("op, fields", [
        ("insert", {"attributes": {"a": 1}}),
        ("sync_delta", {"entities": [{"eid": 3, "attributes": {"a": 1}}]}),
    ])
    def test_row_is_invisible_until_its_fsync_returns(
        self, tmp_path, op, fields
    ):
        server = CinderellaServer(config=ServerConfig(
            maintenance_interval_s=0, wal_path=tmp_path / "node.wal",
        ))
        with ServerThread(server=server) as harness:
            gate = server._wal.sync = _Gate(server._wal.sync)
            with ServerClient(*harness.address) as writer, \
                    ServerClient(*harness.address) as reader:
                write = threading.Thread(
                    target=writer.request, args=(op,), kwargs=fields
                )
                write.start()
                try:
                    assert gate.entered.wait(10)
                    # applied and journaled, not yet durable: not served
                    assert reader.query(["a"]) == []
                finally:
                    gate.release.set()
                    write.join(timeout=30)
                assert not write.is_alive()
                assert reader.query(["a"]) == [{"a": 1}]


class TestServeCommand:
    def test_cli_serve_round_trip(self, tmp_path):
        """``python -m repro serve`` serves traffic and drains on shutdown."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path,
            env={
                "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                "PATH": "/usr/bin:/bin",
            },
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner
            port = int(banner.split()[4].rsplit(":", 1)[1])
            with ServerClient("127.0.0.1", port) as client:
                for i in range(5):
                    client.insert({"x": i})
                assert len(client.query(["x"])) == 5
                client.shutdown()
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "served" in out
        assert list(tmp_path.iterdir()) == []  # no stray files
