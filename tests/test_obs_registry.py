"""Unit battery for the metrics registry (repro.obs.registry).

Covers the contracts the instrumentation layer leans on: label
cardinality bounds, inclusive histogram bucket edges, thread-safe
increments, and both exposition formats round-tripping.
"""

import json
import re
import threading

import pytest

import repro.obs.registry as registry_module
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    SERVER_LATENCY_BUCKETS,
    MetricError,
    MetricsRegistry,
)


class TestCounters:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "ops").inc()
        registry.counter("ops_total").inc(2.5)
        assert registry.get_value("ops_total") == 3.5

    def test_negative_inc_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="only increase"):
            registry.counter("ops_total").inc(-1)

    def test_labeled_children_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", "ops", labelnames=("kind",))
        family.labels(kind="merge").inc(2)
        family.labels(kind="split").inc(5)
        assert registry.get_value("ops_total", kind="merge") == 2
        assert registry.get_value("ops_total", kind="split") == 5

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", "ops")
        increments_per_thread = 5_000

        def hammer():
            for _ in range(increments_per_thread):
                family.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.get_value("ops_total") == 8 * increments_per_thread


class TestGauges:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "queue depth")
        gauge.set(10)
        assert registry.get_value("depth") == 10.0
        gauge._unlabeled().inc(5)
        gauge._unlabeled().dec(2)
        assert registry.get_value("depth") == 13.0


class TestValidation:
    def test_invalid_metric_name(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="invalid metric name"):
            registry.counter("bad name!")

    def test_invalid_label_name(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="invalid label name"):
            registry.counter("ops_total", labelnames=("bad-label",))

    def test_kind_conflict(self):
        registry = MetricsRegistry()
        registry.counter("ops_total")
        with pytest.raises(MetricError, match="already registered as"):
            registry.gauge("ops_total")

    def test_label_schema_conflict(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", labelnames=("kind",))
        with pytest.raises(MetricError, match="already registered with labels"):
            registry.counter("ops_total", labelnames=("outcome",))

    def test_wrong_labels_at_use(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", labelnames=("kind",))
        with pytest.raises(MetricError, match="takes labels"):
            family.labels(outcome="ok")

    def test_unlabeled_shortcut_requires_no_schema(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", labelnames=("kind",))
        with pytest.raises(MetricError, match="requires labels"):
            family.inc()

    def test_label_cardinality_is_bounded(self, monkeypatch):
        monkeypatch.setattr(registry_module, "MAX_LABEL_SETS", 4)
        registry = MetricsRegistry()
        family = registry.counter("ops_total", labelnames=("key",))
        for i in range(4):
            family.labels(key=i).inc()
        with pytest.raises(MetricError, match="exceeded 4 label sets"):
            family.labels(key="one too many").inc()

    def test_unsorted_histogram_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="sorted and distinct"):
            registry.histogram("lat", buckets=(1.0, 0.5))


class TestHistograms:
    def test_bucket_edges_are_inclusive(self):
        """``le`` is inclusive, Prometheus semantics: a value equal to a
        bound lands in that bound's bucket."""
        registry = MetricsRegistry()
        family = registry.histogram("lat", buckets=(0.1, 0.5, 1.0))
        child = family._unlabeled()
        for value in (0.1, 0.5, 1.0):
            child.observe(value)
        assert child.cumulative_buckets() == [
            (0.1, 1), (0.5, 2), (1.0, 3), (float("inf"), 3),
        ]

    def test_overflow_counts_only_toward_inf(self):
        registry = MetricsRegistry()
        child = registry.histogram("lat", buckets=(0.1, 1.0))._unlabeled()
        child.observe(99.0)
        assert child.cumulative_buckets() == [
            (0.1, 0), (1.0, 0), (float("inf"), 1),
        ]
        assert child.sum == 99.0
        assert child.count == 1

    def test_sum_and_count_accumulate(self):
        registry = MetricsRegistry()
        child = registry.histogram("lat")._unlabeled()
        for value in (0.001, 0.02, 0.3):
            child.observe(value)
        assert child.count == 3
        assert child.sum == pytest.approx(0.321)

    def test_default_buckets_cover_hot_paths(self):
        assert DEFAULT_BUCKETS[0] <= 1e-4, "sub-100µs catalog ops need a bucket"
        assert DEFAULT_BUCKETS[-1] >= 5.0, "reorganizations take seconds"
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_server_latency_buckets_span_wire_latencies(self):
        """The server-path preset must resolve both tails: sub-ms hits
        (cache, index prune) and multi-second stalls (admission waits,
        group commits under load)."""
        assert SERVER_LATENCY_BUCKETS[0] <= 1e-4, \
            "cached queries answer in tens of microseconds"
        assert SERVER_LATENCY_BUCKETS[-1] >= 5.0, \
            "an admission-queue stall can reach seconds"
        assert list(SERVER_LATENCY_BUCKETS) == sorted(set(SERVER_LATENCY_BUCKETS))

    def test_server_latency_buckets_are_log_spaced(self):
        """Doubling bounds: constant relative error for quantile
        estimates across four orders of magnitude."""
        for lower, upper in zip(
            SERVER_LATENCY_BUCKETS, SERVER_LATENCY_BUCKETS[1:]
        ):
            assert upper == pytest.approx(2 * lower), (
                f"bucket {upper} is not 2x {lower}"
            )


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("ops_total", "operations").inc(3)
        registry.gauge("depth", "queue depth").set(7)
        family = registry.counter("txn_total", "txns", labelnames=("kind",))
        family.labels(kind="merge").inc(2)
        hist = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        return registry

    def test_prometheus_grammar(self):
        text = self._populated().to_prometheus()
        assert "# HELP ops_total operations\n" in text
        assert "# TYPE ops_total counter\n" in text
        assert "\nops_total 3\n" in text
        assert "\ndepth 7\n" in text
        assert '\ntxn_total{kind="merge"} 2\n' in text
        assert '\nlat_seconds_bucket{le="0.1"} 1\n' in text
        assert '\nlat_seconds_bucket{le="1"} 2\n' in text
        assert '\nlat_seconds_bucket{le="+Inf"} 2\n' in text
        assert "\nlat_seconds_count 2\n" in text
        # every non-comment line is ``name{labels} value``
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+.eInf]+$'
        )
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert sample_re.match(line), f"malformed sample line: {line!r}"

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", labelnames=("q",))
        family.labels(q='say "hi"\n').inc()
        text = registry.to_prometheus()
        assert r'q="say \"hi\"\n"' in text

    def test_json_round_trip(self):
        registry = self._populated()
        document = json.loads(registry.to_json())
        assert document == registry.to_json_obj()
        by_name = {m["name"]: m for m in document["metrics"]}
        assert by_name["ops_total"]["samples"][0]["value"] == 3.0
        assert by_name["txn_total"]["samples"][0]["labels"] == {"kind": "merge"}
        hist = by_name["lat_seconds"]["samples"][0]
        assert hist["count"] == 2
        assert hist["buckets"][-1] == ["+Inf", 2]

    def test_empty_registry_exposes_empty(self):
        registry = MetricsRegistry()
        assert registry.to_prometheus() == ""
        assert registry.to_json_obj() == {"metrics": []}

    def test_reset_drops_families(self):
        registry = self._populated()
        registry.reset()
        assert registry.families() == []
        assert registry.get_value("ops_total") is None


class TestConcurrencyBattery:
    """Hammer the registry from many threads: writes must never be lost
    and exposition must never tear (a scrape racing writers must still
    produce well-formed, monotonically consistent output)."""

    SAMPLE_RE = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+.eInf]+$'
    )

    def test_concurrent_labeled_increments_lose_nothing(self):
        """Threads racing on the same child AND on child creation."""
        registry = MetricsRegistry()
        family = registry.counter("ops_total", "ops", labelnames=("worker",))
        per_thread = 2_000
        n_threads = 8

        def hammer(index: int) -> None:
            mine = family.labels(worker=index)
            shared = family.labels(worker="shared")
            for _ in range(per_thread):
                mine.inc()
                shared.inc()

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(n_threads):
            assert registry.get_value("ops_total", worker=index) == per_thread
        assert registry.get_value(
            "ops_total", worker="shared"
        ) == n_threads * per_thread

    def test_concurrent_histogram_observes_lose_nothing(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        per_thread = 2_000
        n_threads = 8

        def hammer() -> None:
            child = family._unlabeled()
            for i in range(per_thread):
                child.observe(0.05 if i % 2 else 0.5)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        child = family._unlabeled()
        expected = n_threads * per_thread
        assert child.count == expected
        assert child.cumulative_buckets()[-1] == (float("inf"), expected)
        assert child.sum == pytest.approx(
            n_threads * (per_thread // 2 * 0.05 + per_thread // 2 * 0.5)
        )

    def test_exposition_never_tears_under_write_load(self):
        """Scrape both formats while writers hammer the same families.

        Every scrape must be well-formed, histogram buckets must stay
        cumulative within one sample, and counter values must never go
        backwards between successive scrapes."""
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "ops")
        hist = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        stop = threading.Event()

        def writer() -> None:
            child = hist._unlabeled()
            while not stop.is_set():
                counter.inc()
                child.observe(0.05)
                child.observe(0.5)

        writers = [threading.Thread(target=writer) for _ in range(4)]
        for thread in writers:
            thread.start()
        try:
            last_total = 0.0
            last_count = 0.0
            for _ in range(200):
                text = registry.to_prometheus()
                for line in text.strip().splitlines():
                    if not line.startswith("#"):
                        assert self.SAMPLE_RE.match(line), (
                            f"torn sample line: {line!r}"
                        )
                document = registry.to_json_obj()
                by_name = {m["name"]: m for m in document["metrics"]}
                total = by_name["ops_total"]["samples"][0]["value"]
                assert total >= last_total, "counter went backwards"
                last_total = total
                sample = by_name["lat"]["samples"][0]
                counts = [count for _le, count in sample["buckets"]]
                assert counts == sorted(counts), (
                    f"non-cumulative buckets in one sample: {counts}"
                )
                assert sample["count"] >= last_count
                last_count = sample["count"]
        finally:
            stop.set()
            for thread in writers:
                thread.join()
        assert last_total > 0 and last_count > 0
