"""Federation battery: documents, merging, and the cluster CLI.

Unit coverage drives :mod:`repro.obs.federation` on fabricated
documents (no sockets): node labeling, cross-node sums, bucket-wise
histogram merging, bounds-mismatch refusal, staleness and
unreachability marking, quantile estimation, and both expositions.
The CLI class then runs ``repro obs --cluster``, the fleet Prometheus
endpoint, and ``repro top`` against a real two-node
:class:`~repro.router.testing.ClusterHarness` — including a killed
node rendered as UNREACHABLE, never as silent zeros.
"""

import json
import socket
import threading
import urllib.request

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs.federation import (
    FederatedView,
    local_obs_document,
    merge_documents,
    quantile_from_buckets,
    scrape_cluster,
    unreachable_document,
)
from repro.obs.registry import MetricsRegistry
from repro.router.testing import ClusterHarness


@pytest.fixture(autouse=True)
def _always_disable():
    yield
    obs.disable()


def _node_document(
    name: str,
    requests: float,
    buckets=(0.1, 1.0),
    observations=(),
    collected_at: float = 1000.0,
) -> dict:
    """A fabricated per-node observability document."""
    registry = MetricsRegistry()
    family = registry.counter(
        "repro_server_requests_handled_total", "requests",
        labelnames=("op",),
    )
    family.labels(op="query").inc(requests)
    hist = registry.histogram(
        "repro_server_request_seconds", "latency",
        labelnames=("op",), buckets=buckets,
    )
    for value in observations:
        hist.labels(op="query").observe(value)
    return {
        "name": name,
        "tier": "node",
        "collected_at": collected_at,
        "enabled": True,
        "registry": registry.to_json_obj(),
        "traces": {"top_spans": [["node.request", int(requests), 0.5]]},
    }


class TestDocuments:
    def test_disabled_process_still_identifies_itself(self):
        document = local_obs_document("n1")
        assert document["name"] == "n1"
        assert document["tier"] == "node"
        assert document["enabled"] is False
        assert "registry" not in document

    def test_enabled_document_carries_registry_and_traces(self):
        obs.enable()
        obs.inc("repro_test_total", help_text="test counter")
        with obs.span("unit.work"):
            pass
        document = local_obs_document("n1", tier="router")
        assert document["enabled"] is True
        assert document["tier"] == "router"
        names = {m["name"] for m in document["registry"]["metrics"]}
        assert "repro_test_total" in names
        assert document["traces"]["top_spans"][0][0] == "unit.work"

    def test_document_reads_counter_sets_live(self):
        """A wire-visible snapshot is current with every counter-set
        bump made before it was taken."""
        from repro.obs.counters import RouterCounters

        obs.enable()
        counters = RouterCounters()
        counters.obs_scrapes += 3
        document = local_obs_document("r1", tier="router")
        by_name = {
            m["name"]: m for m in document["registry"]["metrics"]
        }
        assert (
            by_name["repro_router_obs_scrapes_total"]["samples"][0]["value"]
            == 3.0
        )

    def test_unreachable_document_shape(self):
        document = unreachable_document("n2", "connection refused")
        assert document["unreachable"] is True
        assert document["error"] == "connection refused"
        assert document["enabled"] is False


class TestMerge:
    def test_samples_gain_node_labels_and_sums_cross_nodes(self):
        view = merge_documents(
            [_node_document("n0", 10), _node_document("n1", 32)],
            now=1000.0,
        )
        family = view.families["repro_server_requests_handled_total"]
        nodes = {s["labels"]["node"] for s in family["samples"]}
        assert nodes == {"n0", "n1"}
        assert view.counter_total(
            "repro_server_requests_handled_total", op="query"
        ) == 42.0
        assert view.counter_total(
            "repro_server_requests_handled_total", op="query", node="n1"
        ) == 32.0

    def test_histograms_merge_bucket_wise(self):
        view = merge_documents([
            _node_document("n0", 1, observations=(0.05, 0.5)),
            _node_document("n1", 1, observations=(0.05, 5.0)),
        ], now=1000.0)
        merged = view.merged_histogram(
            "repro_server_request_seconds", op="query"
        )
        assert merged["count"] == 4.0
        assert merged["buckets"] == [
            (0.1, 2.0), (1.0, 3.0), (float("inf"), 4.0),
        ]
        assert merged["sum"] == pytest.approx(5.6)

    def test_bounds_mismatch_refuses_merge_but_keeps_samples(self):
        view = merge_documents([
            _node_document("n0", 1, buckets=(0.1, 1.0), observations=(0.05,)),
            _node_document("n1", 1, buckets=(0.2, 2.0), observations=(0.05,)),
        ], now=1000.0)
        assert view.merged_histogram(
            "repro_server_request_seconds", op="query"
        ) is None
        assert "repro_server_request_seconds" in view.mixed_bucket_families
        # the counts fallback still answers with per-sample floors
        good, total = view.histogram_counts(
            "repro_server_request_seconds", 0.5, op="query"
        )
        assert total == 2.0
        assert good == 2.0  # 0.1-bucket on n0, 0.2-bucket on n1

    def test_histogram_counts_use_conservative_floor(self):
        """An SLO threshold between bounds reads the bucket below it —
        never interpolated credit."""
        view = merge_documents([
            _node_document("n0", 1, observations=(0.05, 0.5, 0.5)),
        ], now=1000.0)
        good, total = view.histogram_counts(
            "repro_server_request_seconds", 0.7, op="query"
        )
        assert (good, total) == (1.0, 3.0)  # floor at le=0.1, not 1.0

    def test_unreachable_and_stale_marking(self):
        view = merge_documents(
            [
                _node_document("fresh", 1, collected_at=995.0),
                _node_document("old", 1, collected_at=100.0),
                unreachable_document("dead", "RST"),
            ],
            stale_after_s=60.0,
            now=1000.0,
        )
        assert view.unreachable == ["dead"]
        assert view.stale == ["old"]
        by_name = {s["name"]: s for s in view.sources}
        assert by_name["fresh"]["age_s"] == pytest.approx(5.0)
        assert by_name["dead"]["error"] == "RST"
        # an unreachable node contributes no samples — not zeros
        assert view.counter_total(
            "repro_server_requests_handled_total", node="dead"
        ) == 0.0
        family = view.families["repro_server_requests_handled_total"]
        assert all(
            s["labels"]["node"] != "dead" for s in family["samples"]
        )

    def test_quantiles_on_merged_histograms(self):
        view = merge_documents([
            _node_document("n0", 1, observations=(0.05,) * 9 + (0.5,)),
        ], now=1000.0)
        p50 = view.quantile("repro_server_request_seconds", 0.5, op="query")
        assert 0.0 < p50 <= 0.1
        p99 = view.quantile("repro_server_request_seconds", 0.99, op="query")
        assert 0.1 < p99 <= 1.0

    def test_prometheus_exposition_carries_node_up_rows(self):
        view = merge_documents(
            [_node_document("n0", 5), unreachable_document("n1", "refused")],
            now=1000.0,
        )
        text = view.to_prometheus()
        assert 'repro_cluster_node_up{node="n0",tier="node"} 1' in text
        assert 'repro_cluster_node_up{node="n1",tier="node"} 0' in text
        assert 'node="n0"' in text and "repro_server_requests_handled" in text

    def test_json_round_trip_preserves_answers(self):
        view = merge_documents([
            _node_document("n0", 7, observations=(0.05, 0.5)),
            unreachable_document("n1", "refused"),
        ], now=1000.0)
        rebuilt = FederatedView.from_json_obj(view.to_json_obj())
        assert rebuilt.unreachable == ["n1"]
        assert rebuilt.counter_total(
            "repro_server_requests_handled_total", op="query"
        ) == 7.0
        assert rebuilt.merged_histogram(
            "repro_server_request_seconds", op="query"
        )["count"] == view.merged_histogram(
            "repro_server_request_seconds", op="query"
        )["count"]
        assert rebuilt.traces["n0"]["top_spans"][0][0] == "node.request"

    def test_scrape_cluster_turns_raises_into_unreachable(self):
        def request(name: str) -> dict:
            if name == "bad":
                raise ConnectionRefusedError("no route")
            return _node_document(name, 1)

        view = scrape_cluster(request, ["good", "bad"])
        assert view.unreachable == ["bad"]
        assert [s["name"] for s in view.sources] == ["good", "bad"]

    def test_malformed_documents_are_skipped_not_fatal(self):
        view = merge_documents([
            "not a dict",
            {"name": "odd", "enabled": True, "registry": "not a dict"},
            {"enabled": True, "registry": {"metrics": ["junk", {"x": 1}]}},
            _node_document("n0", 1),
        ], now=1000.0)
        assert view.counter_total(
            "repro_server_requests_handled_total", op="query"
        ) == 1.0


class TestQuantileFromBuckets:
    def test_empty_and_zero_total(self):
        assert quantile_from_buckets([], 0.5) is None
        assert quantile_from_buckets([(0.1, 0), (float("inf"), 0)], 0.5) is None

    def test_interpolates_within_bucket(self):
        pairs = [(0.1, 0.0), (0.2, 10.0), (float("inf"), 10.0)]
        assert quantile_from_buckets(pairs, 0.5) == pytest.approx(0.15)

    def test_inf_bucket_answers_highest_finite_bound(self):
        pairs = [(0.1, 0.0), (1.0, 0.0), (float("inf"), 4.0)]
        assert quantile_from_buckets(pairs, 0.99) == 1.0


class TestClusterCli:
    """``repro obs --cluster`` / ``repro top`` against a live cluster."""

    def _load(self, harness: ClusterHarness, queries: int = 6) -> str:
        with harness.client() as client:
            for eid in range(24):
                client.insert({"a": eid % 4, "b": eid % 3}, eid=eid)
            for _ in range(queries):
                client.query(["a"])
        host, port = harness.router_address
        return f"{host}:{port}"

    def test_cluster_summary_marks_killed_node_unreachable(
        self, tmp_path, capsys
    ):
        obs.enable(propagate=True)
        with ClusterHarness(tmp_path, n_nodes=2) as harness:
            address = self._load(harness)
            assert cli_main(["obs", "--cluster", address]) == 0
            healthy = capsys.readouterr().out
            assert "Cluster observability via" in healthy
            assert "node0" in healthy and "node1" in healthy
            assert "router" in healthy
            assert "UNREACHABLE" not in healthy
            assert "p99 ms" in healthy

            harness.kill_node("node1")
            assert cli_main(["obs", "--cluster", address]) == 1
            degraded = capsys.readouterr().out
            assert "UNREACHABLE" in degraded

    def test_cluster_prometheus_and_json_formats(self, tmp_path, capsys):
        obs.enable(propagate=True)
        with ClusterHarness(tmp_path, n_nodes=2) as harness:
            address = self._load(harness)
            assert cli_main([
                "obs", "--cluster", address, "--format", "prometheus",
            ]) == 0
            text = capsys.readouterr().out
            assert 'repro_cluster_node_up{node="node0",tier="node"} 1' in text
            assert 'repro_cluster_node_up{node="router",tier="router"} 1' in text
            assert 'node="node1"' in text

            assert cli_main([
                "obs", "--cluster", address, "--format", "json",
            ]) == 0
            document = json.loads(capsys.readouterr().out)
            names = {s["name"] for s in document["sources"]}
            assert names == {"node0", "node1", "router"}

    def test_fleet_prometheus_endpoint(self, tmp_path, capsys):
        obs.enable(propagate=True)
        with ClusterHarness(tmp_path, n_nodes=2) as harness:
            address = self._load(harness)
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                http_port = probe.getsockname()[1]
            server = threading.Thread(
                target=cli_main,
                args=([
                    "obs", "--cluster", address,
                    "--listen", str(http_port), "--max-requests", "1",
                ],),
                daemon=True,
            )
            server.start()
            body = None
            for _ in range(50):
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{http_port}/metrics", timeout=5
                    ) as response:
                        body = response.read().decode()
                    break
                except OSError:
                    import time
                    time.sleep(0.1)
            server.join(timeout=10)
            assert body is not None, "endpoint never answered"
            assert "repro_cluster_node_up" in body
            assert 'node="node0"' in body

    def test_top_renders_rates_replicas_and_slos(self, tmp_path, capsys):
        obs.enable(propagate=True)
        with ClusterHarness(tmp_path, n_nodes=2) as harness:
            address = self._load(harness, queries=10)
            assert cli_main([
                "top", address, "--iterations", "2",
                "--interval", "0.05", "--no-clear",
            ]) == 0
            out = capsys.readouterr().out
            assert "repro top" in out
            assert "Requests by node and verb" in out
            assert "Replica health" in out
            assert "SLO burn rates" in out
            assert "query-availability" in out
            assert "shed rate" in out
