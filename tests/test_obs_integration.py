"""End-to-end observability: spans, metrics, and surfaces agree.

The acceptance bar of the observability layer:

* a single insert that causes a split leaves a complete nested span
  tree (insert -> split -> restricted rate / place);
* ``python -m repro query-path`` (one table's counter set) and
  ``python -m repro obs`` (the registry's live view) report identical
  numbers, and the view needs no flush;
* one instrumented run covers insert, query, maintenance, and WAL
  metric families, and both exposition formats are valid.
"""

import gc
import importlib
import json
import sys
import threading
import time

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.core.config import CinderellaConfig
from repro.core.partitioner import CinderellaPartitioner
from repro.maintenance.merger import merge_small_partitions
from repro.obs.counters import (
    AdaptationCounters,
    CounterSet,
    QueryPathCounters,
    RouterCounters,
    ServerCounters,
)
from repro.obs.registry import MetricError
from repro.query.cache import QueryResultCache
from repro.query.query import AttributeQuery
from repro.query.snapshot import SnapshotManager
from repro.router.testing import ClusterHarness
from repro.storage.wal import WriteAheadLog
from repro.table.partitioned import CinderellaTable
from repro.txn.crash import CrashInjector, MidOperationCrash


@pytest.fixture(autouse=True)
def _always_disable():
    yield
    obs.disable()


class TestSplitTrace:
    def test_insert_causing_split_leaves_full_span_tree(self):
        """A single insert that splits shows the full nested story.

        The masks are arranged so the fifth insert overflows the one
        partition everything rated into, and — crucially — so the
        triggering entity is *not* picked as a split starter (its mask
        sits between the two extremes), which means it re-inserts into
        the split targets with full stage spans.
        """
        partitioner = CinderellaPartitioner(
            CinderellaConfig(max_partition_size=4, weight=0.9)
        )
        state = obs.enable(slow_op_threshold_s=None)
        outcome = None
        for eid, mask in enumerate((0b0001, 0b1111, 0b0011, 0b0011, 0b0011)):
            outcome = partitioner.insert(eid, mask)
        obs.disable()
        assert outcome.splits > 0, "the last insert must have split"

        trace = None
        for root in reversed(state.tracer.finished):
            if root.name == "partitioner.insert" and root.attributes.get(
                "splits"
            ):
                trace = root
                break
        assert trace is not None, "the splitting insert left no trace"
        assert trace.attributes["eid"] == outcome.entity_id
        assert trace.attributes["partition_id"] == outcome.partition_id
        assert trace.attributes["splits"] == outcome.splits

        names = [span.name for span in trace.walk()]
        assert names[0] == "partitioner.insert"
        assert "partitioner.split" in names, "split must nest under insert"
        split = next(
            span for span in trace.children if span.name == "partitioner.split"
        )
        assert split.attributes["source_pid"] is not None
        stage_names = {span.name for span in split.walk()}
        # the triggering entity re-inserts with full stage spans: the
        # restricted rating over the two split targets, then placement
        assert "partitioner.rate" in stage_names
        assert "partitioner.place" in stage_names
        rate = next(
            span for span in split.walk() if span.name == "partitioner.rate"
        )
        assert rate.attributes.get("restricted") is True

    def test_plain_insert_records_one_span_with_stage_attributes(self):
        """The non-split fast path traces as a single span — stage data
        lands in attributes, not child spans (overhead budget)."""
        partitioner = CinderellaPartitioner(
            CinderellaConfig(max_partition_size=100.0)
        )
        state = obs.enable(slow_op_threshold_s=None)
        partitioner.insert(1, 0b11)
        partitioner.insert(2, 0b11)
        obs.disable()
        root = state.tracer.find_trace("partitioner.insert")
        assert root.children == ()
        assert root.attributes["ratings"] >= 1
        assert "partition_id" in root.attributes

    def test_insert_latency_histogram_is_span_timed(self):
        partitioner = CinderellaPartitioner()
        state = obs.enable(slow_op_threshold_s=None)
        for eid in range(10):
            partitioner.insert(eid, 0b1 << (eid % 3))
        obs.disable()
        child = state.registry.get("repro_insert_latency_seconds")._unlabeled()
        assert child.count == 10
        insert_aggregate = state.tracer.aggregates["partitioner.insert"]
        assert child.sum == pytest.approx(insert_aggregate[1])

    def test_metrics_only_mode_still_times_inserts(self):
        partitioner = CinderellaPartitioner()
        state = obs.enable(trace=False)
        partitioner.insert(1, 0b11)
        obs.disable()
        child = state.registry.get("repro_insert_latency_seconds")._unlabeled()
        assert child.count == 1
        assert child.sum > 0.0


def _run_query_workload(table):
    attributes = ["name", "resolution", "aperture", "storage", "rotation"]
    for eid in range(60):
        row = {
            "name": f"e{eid}",
            attributes[1 + eid % 4]: eid,
        }
        table.insert(row, entity_id=eid)
    queries = [
        AttributeQuery(("name",)),
        AttributeQuery(("resolution",)),
        AttributeQuery(("storage",)),
    ]
    for _round in range(3):
        for query in queries:
            table.execute(query)


class TestCountersAgreement:
    def test_query_path_counters_match_registry(self):
        """``repro query-path`` reads the counter set, ``repro obs`` reads
        the registry's view of it; they must be identical."""
        table = CinderellaTable(
            CinderellaConfig(max_partition_size=20.0, weight=0.4,
                             use_synopsis_index=True),
            result_cache=QueryResultCache(),
        )
        state = obs.enable()
        _run_query_workload(table)
        obs.disable()

        reported = table.query_counters.as_dict()
        assert reported["queries_total"] == 9
        assert reported["cache_hits"] > 0
        for field, (metric, _kind, _help) in QueryPathCounters.METRICS.items():
            registry_value = state.registry.get_value(metric)
            if reported[field] == 0:
                assert registry_value in (None, 0.0), metric
            else:
                assert registry_value == reported[field], metric

    def test_live_read_in_enabled_session_is_current(self):
        """A registry read inside an enabled session sees every bump made
        so far, with no call in between — there is nothing to flush."""
        table = CinderellaTable(
            CinderellaConfig(max_partition_size=20.0),
            result_cache=QueryResultCache(),
        )
        registry = obs.enable().registry
        _run_query_workload(table)
        assert registry.get_value("repro_query_queries_total") == 9
        table.execute(AttributeQuery(("name",)))
        assert registry.get_value("repro_query_queries_total") == 10
        assert "repro_query_queries_total 10" in registry.to_prometheus()

    def test_mirror_aggregates_multiple_tables(self):
        state = obs.enable()
        for _ in range(2):
            table = CinderellaTable(
                CinderellaConfig(max_partition_size=20.0),
                result_cache=QueryResultCache(),
            )
            _run_query_workload(table)
        obs.disable()
        assert state.registry.get_value("repro_query_queries_total") == 18


COUNTER_SETS = (
    QueryPathCounters, ServerCounters, RouterCounters, AdaptationCounters,
)

#: the ``counters`` block of a serving node's ``stats`` response —
#: ``benchmarks/layers/workloads.py`` reads these names off the wire
NODE_STATS_COUNTERS = [
    "connections_opened", "connections_closed", "requests_total",
    "requests_failed", "bad_requests", "writes_applied", "writes_rejected",
    "writes_shed_overloaded", "writes_shed_shutdown", "batches_flushed",
    "queries_served", "sql_served", "maintenance_passes",
    "partitions_merged", "reorganizations", "queue_high_watermark",
    "wal_writes_logged", "wal_records_replayed", "connections_force_closed",
    "checkpoints_taken", "checkpoint_records_truncated",
    "sync_pages_served", "sync_deltas_applied", "sync_entities_received",
    "snapshots_published", "snapshot_reads",
    "snapshot_response_cache_hits", "admission_window", "adapt_decisions",
    "adapt_actions", "shed_rate",
]
ROUTER_STATS_COUNTERS = [
    "connections_opened", "connections_closed", "requests_total",
    "requests_failed", "bad_requests", "connections_force_closed",
    "writes_routed", "queries_scattered", "rows_reencoded",
    "replies_complete", "replies_degraded", "replies_unavailable",
    "upstream_retries", "failovers", "node_ejections", "node_restores",
    "probes_sent", "catchup_replayed", "catchup_dropped", "nodes_diverged",
    "resyncs_started", "resyncs_completed", "resyncs_failed",
    "sync_entities_streamed", "obs_scrapes", "availability",
]


class TestCounterSets:
    @pytest.mark.parametrize("cls", COUNTER_SETS, ids=lambda c: c.__name__)
    def test_as_dict_is_the_declaration_plus_rates(self, cls):
        rates = {
            QueryPathCounters: ["cache_hit_rate", "pruning_ratio"],
            ServerCounters: ["shed_rate"],
            RouterCounters: ["availability"],
        }.get(cls, [])
        counters = cls()
        assert list(counters.as_dict()) == list(cls.METRICS) + rates
        first = next(iter(cls.METRICS))
        setattr(counters, first, 7)
        assert counters.as_dict()[first] == 7

    def test_stats_counters_keys_on_the_wire(self, tmp_path):
        with ClusterHarness(tmp_path, n_nodes=1, replication_factor=1) as h:
            with h.client() as client:
                client.insert({"a": 1})
                assert client.request("obs").ok
                router_counters = client.stats()["counters"]
            with h.node_client("node0") as client:
                node_counters = client.stats()["counters"]
        assert list(node_counters) == NODE_STATS_COUNTERS
        assert list(router_counters) == ROUTER_STATS_COUNTERS
        assert router_counters["obs_scrapes"] == 1
        assert node_counters["writes_applied"] == 1

    def test_counts_survive_their_owner_mid_session(self):
        """A set that is garbage-collected folds into its class's
        retired total: the family never goes backwards."""
        state = obs.enable()
        first = QueryPathCounters()
        first.cache_hits += 5
        second = QueryPathCounters()
        second.cache_hits += 2
        assert state.registry.get_value("repro_query_cache_hits_total") == 7
        del first
        gc.collect()
        assert state.registry.get_value("repro_query_cache_hits_total") == 7
        second.cache_hits += 1
        del second
        gc.collect()
        assert state.registry.get_value("repro_query_cache_hits_total") == 8

    def test_second_session_starts_from_zero(self):
        counters = RouterCounters()
        first = obs.enable()
        counters.requests_total += 4
        obs.disable()
        counters.requests_total += 10  # between sessions: in neither
        second = obs.enable()
        counters.requests_total += 2
        assert first.registry.get_value("repro_router_requests_total") == 4
        assert second.registry.get_value("repro_router_requests_total") == 2
        assert counters.requests_total == 16

    def test_set_bumped_on_a_worker_thread_reads_from_main(self):
        state = obs.enable()
        counters = ServerCounters()
        half_way = threading.Event()
        resume = threading.Event()

        def work():
            for _ in range(1000):
                counters.requests_total += 1
            counters.queue_high_watermark = 9
            half_way.set()
            assert resume.wait(10)
            for _ in range(1000):
                counters.requests_total += 1

        worker = threading.Thread(target=work)
        worker.start()
        assert half_way.wait(10)
        get_value = state.registry.get_value
        assert get_value("repro_server_requests_handled_total") == 1000
        assert get_value("repro_server_queue_high_watermark") == 9
        resume.set()
        worker.join(10)
        assert not worker.is_alive()
        assert get_value("repro_server_requests_handled_total") == 2000

    def test_sets_created_and_dropped_under_concurrent_reads(self):
        """Sets born, bumped and collected on several threads while the
        main thread reads: the family never goes backwards (no set is
        ever counted in neither the live nor the retired total) and
        ends at exactly the number of bumps made."""
        state = obs.enable()
        get_value = state.registry.get_value
        workers, sets_each, bumps = 8, 150, 20
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def churn():
                for _ in range(sets_each):
                    counters = AdaptationCounters()
                    for _ in range(bumps):
                        counters.decisions_total += 1

            threads = [threading.Thread(target=churn) for _ in range(workers)]
            for thread in threads:
                thread.start()
            seen = 0.0
            deadline = time.monotonic() + 60
            while any(t.is_alive() for t in threads):
                assert time.monotonic() < deadline
                value = get_value("repro_adapt_decisions_total") or 0.0
                assert value >= seen
                seen = value
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert get_value("repro_adapt_decisions_total") == (
            workers * sets_each * bumps
        )

    def test_gauge_is_the_max_over_live_sets(self):
        state = obs.enable()
        shallow, deep = ServerCounters(), ServerCounters()
        shallow.queue_high_watermark = 3
        deep.queue_high_watermark = 8
        get_value = state.registry.get_value
        assert get_value("repro_server_queue_high_watermark") == 8
        del deep
        gc.collect()
        assert get_value("repro_server_queue_high_watermark") == 3

    def test_a_metric_name_is_declared_once(self):
        with pytest.raises(MetricError, match="declared by"):
            class Clash(CounterSet):
                METRICS = {
                    "hits": ("repro_query_cache_hits_total", "counter", "x"),
                }

    def test_the_shim_layer_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.obs.shims")
        assert "flush_mirrors" not in obs.__all__
        assert not hasattr(obs, "flush_mirrors")


class TestSubsystemCoverage:
    def test_one_run_covers_all_metric_families(self, tmp_path):
        """Insert, query, maintenance, and WAL families all land in one
        instrumented run — the exposition covers the system."""
        state = obs.enable(slow_op_threshold_s=None)

        table = CinderellaTable(
            CinderellaConfig(max_partition_size=10.0, weight=0.4),
            result_cache=QueryResultCache(),
        )
        _run_query_workload(table)
        table.merge_small_partitions(min_fill=0.9)

        wal = WriteAheadLog(tmp_path / "test.wal")
        wal.append("noop", {}, sync=True)
        wal.close()

        obs.disable()
        families = {family.name for family in state.registry.families()}
        for expected in (
            "repro_insert_latency_seconds",          # insert
            "repro_query_latency_seconds",           # query
            "repro_query_cache_hits_total",          # cache
            "repro_txn_ops_total",                   # maintenance txn
            "repro_wal_fsyncs_total",                # WAL
            "repro_wal_fsync_seconds",
        ):
            assert expected in families, f"{expected} missing from {families}"

    def test_maintenance_merge_is_traced_and_counted(self):
        partitioner = CinderellaPartitioner(
            CinderellaConfig(max_partition_size=10.0)
        )
        for eid in range(8):
            partitioner.insert(eid, 0b1 << (eid % 4))
        state = obs.enable(slow_op_threshold_s=None)
        report = merge_small_partitions(partitioner, min_fill=0.9)
        obs.disable()
        assert state.registry.get_value(
            "repro_maintenance_merge_passes_total"
        ) == 1
        assert state.registry.get_value(
            "repro_maintenance_partitions_merged_total"
        ) == report.merge_count
        assert state.tracer.find_trace("maintenance.merge") is not None

    def test_snapshot_publish_is_traced(self):
        """``snapshot.publish`` names what a publish did: after an
        in-place update, and after a tail insert, it touched and rebuilt
        the one partition and built the one page view that changed; with
        nothing written since, it touched nothing."""
        table = CinderellaTable(
            CinderellaConfig(max_partition_size=100_000.0), page_size=512
        )
        for eid in range(100):
            table.insert({"a": eid}, entity_id=eid)
        manager = SnapshotManager()
        manager.publish(table)
        state = obs.enable(slow_op_threshold_s=None)
        assert table.update(5, {"a": -5}).in_place
        manager.publish(table)
        table.insert({"a": 100}, entity_id=100)
        manager.publish(table)
        manager.publish(table)
        obs.disable()
        publishes = [
            (span.attributes["touched"], span.attributes["rebuilt"],
             span.attributes["pages_built"])
            for span in state.tracer.finished if span.name == "snapshot.publish"
        ]
        assert publishes == [(1, 1, 1), (1, 1, 1), (0, 0, 0)]

    def test_the_table_merge_transaction_is_traced_and_counted(self):
        """A committed merge and a crashed one: ``txn.merge`` wraps the
        logical pass, and each outcome is counted once under
        ``repro_txn_ops_total{kind="merge"}`` — the crash with a
        ``txn.rollback`` event."""
        table = CinderellaTable(
            CinderellaConfig(max_partition_size=10.0, weight=0.4)
        )
        for eid in range(30):  # four of every five deleted: fragments
            table.insert({f"a{eid % 2}": eid, f"b{eid % 2}": eid}, entity_id=eid)
        for eid in range(30):
            if eid % 5:
                table.delete(eid)
        state = obs.enable(slow_op_threshold_s=None)
        table.partitioner.crash_hook = CrashInjector(crash_at=0).reached
        with pytest.raises(MidOperationCrash):
            table.merge_small_partitions(min_fill=0.9)
        table.partitioner.crash_hook = None
        report = table.merge_small_partitions(min_fill=0.9)
        obs.disable()
        assert report.merge_count > 0
        assert table.check_consistency() == []
        for outcome in ("committed", "rolled_back"):
            assert state.registry.get_value(
                "repro_txn_ops_total", kind="merge", outcome=outcome
            ) == 1
        (rollback,) = state.events.of_kind("txn.rollback")
        assert rollback.fields["kind"] == "merge"
        root = state.tracer.find_trace("txn.merge")
        assert [child.name for child in root.children] == ["maintenance.merge"]
        assert root.attributes["steps"] == (
            len(report.moves) + len(report.dropped_partitions)
        )


class TestCliSurface:
    def _run_cli(self, capsys, *argv):
        assert cli_main(["obs", "--entities", "200", *argv]) == 0
        return capsys.readouterr().out

    def test_prometheus_output_is_valid_and_covering(self, capsys):
        out = self._run_cli(capsys, "--format", "prometheus")
        for line in out.strip().splitlines():
            assert line.startswith("#") or " " in line
        for family in (
            "repro_insert_latency_seconds_count",
            "repro_query_latency_seconds_count",
            "repro_txn_ops_total",
            "repro_wal_fsyncs_total",
            "repro_wal_fsync_seconds_count",
        ):
            assert family in out

    def test_json_output_parses_and_has_digests(self, capsys):
        out = self._run_cli(capsys, "--format", "json")
        document = json.loads(out)
        names = {metric["name"] for metric in document["metrics"]}
        assert "repro_insert_latency_seconds" in names
        assert "repro_query_cache_hits_total" in names
        span_names = {entry["name"] for entry in document["top_spans"]}
        assert "partitioner.insert" in span_names
        assert any(
            event["kind"] == "partitioner.new_partition"
            for event in document["events"]
        )

    def test_summary_output_renders(self, capsys):
        out = self._run_cli(capsys)
        assert "partitioner.insert" in out
