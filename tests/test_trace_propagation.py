"""Wire-level trace propagation: one query, one cross-process tree.

The acceptance bar of the tentpole: a routed query through a two-node
cluster must leave a *single* trace — client context → router request →
one router.exchange per upstream hop → node request → the node's local
query spans — reconstructable purely from trace/span/parent ids, on the
live tracer and from exported JSONL alike.  Degraded scatter-gather
must mark the unreachable shard's hop with the transport error, and
with propagation off (the default) nothing may cross the wire at all.
"""

import json

import pytest

from repro import obs
from repro.obs.runtime import adopt_wire_trace, trace_scope, wire_trace
from repro.obs.tracing import TraceContext
from repro.router.testing import ClusterHarness


@pytest.fixture(autouse=True)
def _always_disable():
    yield
    obs.disable()


class TestTraceContext:
    def test_new_mints_w3c_width_ids(self):
        context = TraceContext.new()
        assert len(context.trace_id) == 32
        assert len(context.span_id) == 16
        int(context.trace_id, 16)
        int(context.span_id, 16)
        assert context.parent_span_id is None
        assert context.sampled is True

    def test_child_keeps_trace_and_links_parent(self):
        parent = TraceContext.new()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.parent_span_id == parent.span_id
        assert child.span_id != parent.span_id
        assert child.sampled is parent.sampled

    def test_wire_round_trip(self):
        context = TraceContext.new(sampled=False)
        wire = context.to_wire()
        # the W3C traceparent form: version-trace_id-span_id-flags
        assert wire == f"00-{context.trace_id}-{context.span_id}-00"
        back = TraceContext.from_wire(wire)
        assert back.trace_id == context.trace_id
        assert back.span_id == context.span_id
        assert back.sampled is False
        sampled = TraceContext.new(sampled=True)
        assert TraceContext.from_wire(sampled.to_wire()).sampled is True

    @pytest.mark.parametrize("malformed", [
        None,
        "junk",
        42,
        [],
        {"trace_id": "a" * 32, "span_id": "b" * 16, "sampled": True},
        "",
        "00-" + "a" * 32 + "-" + "b" * 16,          # flags missing
        "99-" + "a" * 32 + "-" + "b" * 16 + "-01",  # unknown version
        "00-" + "a" * 33 + "-" + "b" * 15 + "-01",  # dashes misplaced
        "00_" + "a" * 32 + "_" + "b" * 16 + "_01",  # wrong separators
    ])
    def test_malformed_wire_fields_are_dropped(self, malformed):
        assert TraceContext.from_wire(malformed) is None


class TestRuntimeHelpers:
    def test_disabled_and_non_propagating_stamp_nothing(self):
        assert wire_trace() is None          # observability off
        obs.enable()                          # on, propagation off (default)
        assert wire_trace() is None
        assert adopt_wire_trace(TraceContext.new().to_wire()) is None

    def test_propagating_client_mints_a_fresh_root(self):
        obs.enable(propagate=True)
        wire = wire_trace()
        context = TraceContext.from_wire(wire)
        assert len(context.trace_id) == 32
        assert context.sampled is True
        # outside any span each request starts its own trace
        other = TraceContext.from_wire(wire_trace())
        assert other.trace_id != context.trace_id

    def test_wire_trace_inside_a_span_carries_its_position(self):
        state = obs.enable(propagate=True)
        with state.tracer.span("client.work") as span:
            wire = TraceContext.from_wire(wire_trace())
            assert wire.trace_id == span.trace_id
            assert wire.span_id == span.span_id
        # the lazily minted ids survive on the finished span
        assert state.tracer.finished[-1].trace_id == wire.trace_id

    def test_unsampled_wire_context_is_adopted_and_records_nothing(self):
        state = obs.enable(propagate=True)
        sender = TraceContext.new(sampled=False)
        adopted = adopt_wire_trace(sender.to_wire())  # flags "-00"
        assert adopted.trace_id == sender.trace_id
        assert adopted.parent_span_id == sender.span_id
        assert adopted.sampled is False
        with trace_scope(adopted):
            with state.tracer.span("handler.work") as span:
                pass
        assert span.trace_id is None

    def test_adopt_creates_a_child_of_the_sender(self):
        obs.enable(propagate=True)
        sender = TraceContext.new()
        adopted = adopt_wire_trace(sender.to_wire())
        assert adopted.trace_id == sender.trace_id
        assert adopted.parent_span_id == sender.span_id
        assert adopted.span_id != sender.span_id

    def test_trace_scope_adopts_roots_and_restores(self):
        state = obs.enable(propagate=True)
        context = TraceContext.new().child()
        with trace_scope(context):
            with state.tracer.span("handler.work") as outer:
                with state.tracer.span("handler.inner") as inner:
                    pass
        assert outer.trace_id == context.trace_id
        assert outer.parent_span_id == context.span_id
        assert inner.trace_id == context.trace_id
        assert inner.parent_span_id == outer.span_id
        # scope closed: new roots are local-only again
        with state.tracer.span("afterwards") as after:
            pass
        assert after.trace_id is None

    def test_unsampled_context_yields_noop_scope(self):
        state = obs.enable(propagate=True)
        context = TraceContext(
            TraceContext.new().trace_id, "aa" * 8, sampled=False
        )
        with trace_scope(context):
            with state.tracer.span("handler.work") as span:
                pass
        assert span.trace_id is None


def _spans_by_trace(tracer):
    """All finished spans (roots and descendants) grouped by trace id."""
    groups: dict[str, list] = {}
    for root in tracer.finished:
        for span in root.walk():
            if span.trace_id is not None:
                groups.setdefault(span.trace_id, []).append(span)
    return groups


class TestClusterPropagation:
    def _run_query(self, harness, check=True):
        with harness.client(check=check) as client:
            for eid in range(12):
                client.insert({"a": eid % 3, "b": eid % 2}, eid=eid)
            return client.request("query", attributes=["a"])

    def test_routed_query_yields_one_cross_process_span_tree(self, tmp_path):
        state = obs.enable(propagate=True)
        with ClusterHarness(tmp_path, n_nodes=2) as harness:
            response = self._run_query(harness)
            assert response.ok

        # find the query's trace via the router.request span
        router_requests = [
            span for span in state.tracer.finished
            if span.name == "router.request"
            and span.attributes.get("op") == "query"
        ]
        assert router_requests, "router never recorded its request span"
        root = router_requests[-1]
        trace = _spans_by_trace(state.tracer)[root.trace_id]
        by_name: dict[str, list] = {}
        for span in trace:
            by_name.setdefault(span.name, []).append(span)

        # the client minted the trace: the router's hop has a parent
        # it never saw as a span (the client's wire context)
        assert root.parent_span_id is not None

        # scatter: one exchange per upstream node, both under the router
        exchanges = by_name["router.exchange"]
        assert len(exchanges) == 2
        for exchange in exchanges:
            assert exchange.parent_span_id == root.span_id

        # each node's request span hangs off its exchange
        node_requests = by_name["node.request"]
        assert len(node_requests) == 2
        assert {s.attributes["node"] for s in node_requests} == {
            "node0", "node1"
        }
        exchange_ids = {e.span_id for e in exchanges}
        for node_span in node_requests:
            assert node_span.parent_span_id in exchange_ids

        # the node-local query machinery joined the same trace
        local = [
            span for span in trace if span.name.startswith("query.")
        ]
        assert local, "node-local query spans did not adopt the context"
        node_ids = {s.span_id for s in node_requests}
        roots_of_local = {
            span.parent_span_id for span in trace
            if span.name.startswith("query.") and span.parent_span_id in node_ids
        }
        assert roots_of_local, "local spans are not parented on node hops"

        # the merge step on the router is in the tree too
        assert "router.gather_merge" in by_name

    def test_degraded_scatter_marks_the_dead_shard(self, tmp_path):
        state = obs.enable(propagate=True)
        # rf=1: the dead node's shards have no surviving replica, so the
        # scatter must answer degraded instead of failing over
        with ClusterHarness(
            tmp_path, n_nodes=2, replication_factor=1
        ) as harness:
            with harness.client() as client:
                for eid in range(12):
                    client.insert({"a": eid % 3}, eid=eid)
            harness.kill_node("node1")
            with harness.client(check=False) as client:
                response = client.request("query", attributes=["a"])
            assert response.status == "degraded"

        failed = [
            span for span in state.tracer.finished
            if span.name == "router.exchange"
            and span.attributes.get("node") == "node1"
            and span.error is not None
        ]
        assert failed, "the dead shard's hop was not marked"
        assert "UpstreamError" in failed[-1].error
        # the failed hop is inside the same trace as the degraded answer
        router_requests = [
            span for span in state.tracer.finished
            if span.name == "router.request"
            and span.attributes.get("op") == "query"
        ]
        assert failed[-1].trace_id == router_requests[-1].trace_id

    def test_jsonl_export_correlates_both_tiers(self, tmp_path):
        """The span tree must be reconstructable offline from JSONL."""
        path = tmp_path / "traces.jsonl"
        wal_dir = tmp_path / "cluster"
        wal_dir.mkdir()
        obs.enable(propagate=True, trace_jsonl_path=str(path))
        with ClusterHarness(wal_dir, n_nodes=2) as harness:
            self._run_query(harness)
        obs.disable()  # closes the exporter

        documents = [
            json.loads(line)
            for line in path.read_text().splitlines() if line
        ]

        def flatten(document):
            yield document
            for child in document.get("children", ()):
                yield from flatten(child)

        by_trace: dict[str, list] = {}
        for document in documents:
            for span in flatten(document):
                if "trace_id" in span:
                    by_trace.setdefault(span["trace_id"], []).append(span)
        query_traces = [
            spans for spans in by_trace.values()
            if any(
                s["name"] == "router.request"
                and s["attributes"].get("op") == "query"
                for s in spans
            )
        ]
        assert query_traces, "no exported trace contains the routed query"
        spans = query_traces[-1]
        names = {s["name"] for s in spans}
        assert {"router.request", "router.exchange", "node.request"} <= names
        # every non-root parent id resolves inside the same trace
        ids = {s["span_id"] for s in spans}
        router_root = next(s for s in spans if s["name"] == "router.request")
        for span in spans:
            parent = span.get("parent_span_id")
            if parent is not None and span is not router_root:
                assert parent in ids or parent == router_root["parent_span_id"]

    def test_propagation_disabled_keeps_the_wire_clean(self, tmp_path):
        """obs on but propagate off (the default): no trace fields sent,
        no remote spans recorded — the feature is strictly opt-in."""
        state = obs.enable()
        with ClusterHarness(tmp_path, n_nodes=2) as harness:
            response = self._run_query(harness)
            assert response.ok
        names = {span.name for span in state.tracer.finished}
        assert "router.request" not in names
        assert "node.request" not in names
        assert "router.exchange" not in names
