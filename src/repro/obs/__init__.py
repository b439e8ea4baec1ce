"""repro.obs — the unified observability layer.

One subsystem gives the whole stack its operational eyes (the paper's
evaluation is *about* measuring partitioning efficiency, rating cost,
and maintenance overhead; this module makes those signals first-class at
runtime):

* :mod:`repro.obs.registry` — labeled ``Counter`` / ``Gauge`` /
  ``Histogram`` families with Prometheus-text and JSON exposition;
* :mod:`repro.obs.tracing` — nested ``Span`` trees with
  monotonic-clock timing, per-name aggregates, and a slow-op log;
* :mod:`repro.obs.events` — a bounded ring-buffer event log with
  dropped-event accounting;
* :mod:`repro.obs.export` — JSONL trace export;
* :mod:`repro.obs.runtime` — the global on/off switch and the
  zero-cost-when-disabled helpers instrumented code calls;
* :mod:`repro.obs.counters` — the always-on counter sets, each
  declared once and read live through the registry;
* :mod:`repro.obs.federation` — per-process observability documents
  (the ``obs`` wire verb's payload) merged into a cluster-level
  :class:`~repro.obs.federation.FederatedView`;
* :mod:`repro.obs.slo` — per-verb latency/availability objectives with
  multi-window burn-rate alerting over federated scrapes.

Typical use::

    from repro import obs

    state = obs.enable(slow_op_threshold_s=0.01)
    ...  # run a workload: inserts, queries, maintenance
    print(state.registry.to_prometheus())
    for name, count, total_s in state.tracer.top_spans(5):
        print(f"{name}: {count} calls, {total_s * 1e3:.1f} ms")
    obs.disable()

See ``docs/OBSERVABILITY.md`` for the architecture and the metric
catalog, and ``python -m repro obs`` for the CLI surface.
"""

from repro.obs.events import Event, EventLog
from repro.obs.export import JsonlSpanExporter, read_jsonl_traces
from repro.obs.federation import (
    FederatedView,
    local_obs_document,
    merge_documents,
    quantile_from_buckets,
    scrape_cluster,
    unreachable_document,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    SERVER_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.runtime import (
    ObservabilityState,
    adopt_wire_trace,
    bind_span_histogram,
    disable,
    enable,
    event,
    gauge_set,
    inc,
    is_enabled,
    observe,
    record_remote_span,
    span,
    state,
    trace_scope,
    wire_trace,
)
from repro.obs.slo import (
    DEFAULT_ALERTS,
    DEFAULT_OBJECTIVES,
    BurnAlert,
    SloMonitor,
    SloObjective,
    SloStatus,
)
from repro.obs.tracing import NOOP_SPAN, Span, TraceContext, Tracer

__all__ = [
    "DEFAULT_ALERTS",
    "DEFAULT_BUCKETS",
    "DEFAULT_OBJECTIVES",
    "NOOP_SPAN",
    "SERVER_LATENCY_BUCKETS",
    "BurnAlert",
    "Counter",
    "Event",
    "EventLog",
    "FederatedView",
    "Gauge",
    "Histogram",
    "JsonlSpanExporter",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "ObservabilityState",
    "SloMonitor",
    "SloObjective",
    "SloStatus",
    "Span",
    "TraceContext",
    "Tracer",
    "adopt_wire_trace",
    "bind_span_histogram",
    "disable",
    "enable",
    "event",
    "gauge_set",
    "inc",
    "is_enabled",
    "local_obs_document",
    "merge_documents",
    "observe",
    "quantile_from_buckets",
    "read_jsonl_traces",
    "record_remote_span",
    "scrape_cluster",
    "span",
    "state",
    "trace_scope",
    "unreachable_document",
    "wire_trace",
]
