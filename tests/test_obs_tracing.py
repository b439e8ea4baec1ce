"""Unit battery for tracing, events, export, and the runtime switch.

Covers span nesting, exception-safe close, the bounded digests
(finished ring, aggregates, slow ops), the event ring's wraparound
accounting, JSONL export, and the zero-cost-when-disabled contract of
the module-level helpers.
"""

import pytest

from repro import obs
from repro.obs import events, tracing
from repro.obs.events import EventLog
from repro.obs.tracing import NOOP_SPAN, Tracer


@pytest.fixture(autouse=True)
def _always_disable():
    """No test leaves the process-wide switch on."""
    yield
    obs.disable()


class TestSpanNesting:
    def test_children_attach_to_the_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child_a") as child_a:
                with tracer.span("leaf"):
                    pass
            with tracer.span("child_b"):
                pass
        assert [child.name for child in root.children] == ["child_a", "child_b"]
        assert [leaf.name for leaf in child_a.children] == ["leaf"]
        assert [span.name for span in root.walk()] == [
            "root", "child_a", "leaf", "child_b",
        ]

    def test_only_roots_land_in_the_finished_ring(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert [span.name for span in tracer.finished] == ["root"]

    def test_durations_are_monotonic_and_nested(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                pass
        assert 0.0 <= child.duration_s <= root.duration_s

    def test_attributes_via_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("op", eid=7) as span:
            span.set("outcome", "ok")
        assert span.attributes == {"eid": 7, "outcome": "ok"}

    def test_current_span_follows_the_stack(self):
        tracer = Tracer()
        assert tracer.current_span() is None
        with tracer.span("root") as root:
            assert tracer.current_span() is root
        assert tracer.current_span() is None


class TestExceptionSafety:
    def test_error_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("fails") as span:
                raise ValueError("boom")
        assert span.error == "ValueError: boom"
        assert span.ended_s >= span.started_s
        assert tracer.current_span() is None
        assert "error" in span.to_dict()

    def test_stack_unwinds_past_leaked_children(self):
        """A frame that crashed without closing its child spans must not
        corrupt the stack for the next operation."""
        tracer = Tracer()
        root = tracer.span("root")
        root.__enter__()
        leaked = tracer.span("leaked")
        leaked.__enter__()
        # root closes while its child is still open (crashed frame)
        root.__exit__(None, None, None)
        assert tracer.current_span() is None
        with tracer.span("next_op"):
            assert tracer.current_span().name == "next_op"


class TestDigests:
    def test_finished_ring_wraps_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(tracing, "FINISHED_TRACES", 2)
        tracer = Tracer()
        for index in range(5):
            with tracer.span(f"op{index}"):
                pass
        assert [span.name for span in tracer.finished] == ["op3", "op4"]
        assert tracer.roots_finished == 5
        assert tracer.traces_dropped == 3

    def test_aggregates_and_top_spans(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("frequent"):
                pass
        with tracer.span("rare"):
            pass
        ranked = dict(
            (name, count) for name, count, _total in tracer.top_spans()
        )
        assert ranked == {"frequent": 3, "rare": 1}

    def test_slow_ops_capture_threshold_crossers(self):
        tracer = Tracer(slow_threshold_s=0.0)  # everything is slow
        with tracer.span("crawl", eid=1):
            pass
        assert tracer.slow_ops_seen == 1
        entry = tracer.slow_ops[0]
        assert entry["name"] == "crawl"
        assert entry["attributes"] == {"eid": 1}

    def test_no_threshold_means_no_slow_ops(self):
        tracer = Tracer(slow_threshold_s=None)
        with tracer.span("op"):
            pass
        assert tracer.slow_ops_seen == 0

    def test_recent_traces_and_find_trace(self):
        tracer = Tracer()
        for index in range(3):
            with tracer.span(f"op{index}"):
                pass
        assert [s.name for s in tracer.recent_traces(2)] == ["op1", "op2"]
        assert tracer.find_trace("op0").name == "op0"
        assert tracer.find_trace("nope") is None


class TestEventLog:
    def test_wraparound_keeps_newest_and_counts_dropped(self, monkeypatch):
        monkeypatch.setattr(events, "CAPACITY", 3)
        log = EventLog()
        for index in range(7):
            log.emit("tick", i=index)
        assert [event.fields["i"] for event in log.events()] == [4, 5, 6]
        assert log.emitted == 7
        assert log.dropped == 4
        assert len(log) == 3

    def test_no_drops_below_capacity(self):
        log = EventLog()
        log.emit("tick")
        assert log.dropped == 0

    def test_kind_can_collide_with_a_payload_field(self):
        log = EventLog()
        event = log.emit("txn.rollback", kind="merge")
        assert event.kind == "txn.rollback"
        assert event.fields == {"kind": "merge"}

    def test_of_kind_exact_and_prefix(self):
        log = EventLog()
        log.emit("fault.crash", node=1)
        log.emit("fault.recover", node=1)
        log.emit("ingest.rejected")
        assert len(log.of_kind("fault.crash")) == 1
        assert len(log.of_kind("fault.")) == 2


class TestJsonlExport:
    def test_roots_export_as_nested_documents(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        obs.enable(trace_jsonl_path=path)
        with obs.span("root", eid=1):
            with obs.span("child"):
                pass
        with obs.span("another"):
            pass
        obs.disable()
        documents = obs.read_jsonl_traces(path)
        assert [doc["name"] for doc in documents] == ["root", "another"]
        assert documents[0]["attributes"] == {"eid": 1}
        assert [c["name"] for c in documents[0]["children"]] == ["child"]


class TestRuntimeSwitch:
    def test_disabled_helpers_are_noops(self):
        assert not obs.is_enabled()
        assert obs.span("anything") is NOOP_SPAN
        with obs.span("anything") as span:
            span.set("ignored", 1)
        assert not span.is_recording
        # none of these may raise or allocate state while disabled
        obs.inc("nope_total")
        obs.observe("nope_seconds", 0.1)
        obs.gauge_set("nope", 1)
        obs.event("nope.kind")
        assert obs.state() is None

    def test_enable_records_and_disable_freezes(self):
        state = obs.enable(slow_op_threshold_s=None)
        obs.inc("ops_total", help_text="ops")
        obs.observe("lat_seconds", 0.2)
        obs.gauge_set("depth", 4)
        obs.event("thing.happened", detail=1)
        with obs.span("op"):
            pass
        returned = obs.disable()
        assert returned is state
        assert state.registry.get_value("ops_total") == 1
        assert state.registry.get("lat_seconds")._unlabeled().count == 1
        assert state.registry.get_value("depth") == 4
        assert state.events.of_kind("thing.happened")[0].fields == {"detail": 1}
        assert state.tracer.roots_finished == 1
        # and the switch is really off again
        assert obs.span("op") is NOOP_SPAN

    def test_labeled_helpers_create_labeled_families(self):
        obs.enable()
        obs.inc("txn_total", kind="merge", outcome="ok")
        obs.inc("txn_total", kind="merge", outcome="ok")
        state = obs.disable()
        assert state.registry.get_value(
            "txn_total", kind="merge", outcome="ok"
        ) == 2

    def test_metrics_only_mode_has_no_tracer(self):
        obs.enable(trace=False)
        assert obs.span("op") is NOOP_SPAN
        obs.inc("ops_total")
        state = obs.disable()
        assert state.tracer is None
        assert state.registry.get_value("ops_total") == 1

    def test_bound_span_histogram_observes_span_durations(self):
        obs.bind_span_histogram(
            "obs_test.bound_op", "obs_test_bound_seconds", "bound"
        )
        try:
            obs.enable()
            for _ in range(3):
                with obs.span("obs_test.bound_op"):
                    pass
            state = obs.disable()
            child = state.registry.get("obs_test_bound_seconds")._unlabeled()
            assert child.count == 3
            assert child.sum == pytest.approx(
                state.tracer.aggregates["obs_test.bound_op"][1]
            )
        finally:
            from repro.obs import runtime

            runtime._SPAN_HISTOGRAMS.pop("obs_test.bound_op", None)
