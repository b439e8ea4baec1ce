"""Counter sets: the always-on operational counters, declared once.

Every subsystem that counts what it does — the query path, the serving
node, the router, the adaptation controller — owns a
:class:`CounterSet` subclass.  Each subclass carries **one table**,
``METRICS``: ``field -> (metric name, kind, help)``.  From that table
come the instance attributes (plain ints, so ``counters.x += 1`` costs
what any attribute write costs, with observability on or off),
:meth:`CounterSet.as_dict` (the ``stats`` wire verb and the CLIs), and
the registry family with its ``# HELP`` line.  Nothing else in ``src/``
repeats a metric name or a help string.

The sets always count.  While an observability session is enabled the
registry *views* them: :func:`attach` records the process totals at
``enable()`` and hands the registry a refresh that runs inside its read
funnel, so every ``get`` / ``get_value`` / ``families`` — hence both
exposition formats, the ``obs`` wire verb and federation — reads the
current sum over all sets of a class (one per table, one per server)
minus that baseline.  A set that is garbage-collected folds its counts
into a per-class retired total, so a family stays monotonic when its
owner goes away; gauges (watermarks, windows) read the max over the
sets still alive.
"""

from __future__ import annotations

import threading
from typing import ClassVar

from repro.obs.registry import COUNTER, GAUGE, MetricError, MetricsRegistry

#: guards ``_LIVE``, the retired totals and the reaping of ``_DEAD``
_LOCK = threading.Lock()
#: id(values dict) -> (class, values dict) of every set not yet reaped.
#: Holding the dict (not the instance) keeps a dead set's final counts
#: readable until they are folded into its class's retired total
_LIVE: dict[int, tuple[type["CounterSet"], dict[str, int]]] = {}
#: keys of ``_LIVE`` whose instance is gone.  ``__del__`` may run at any
#: allocation on any thread — also while ``_LOCK`` is held — so all it
#: does is this one atomic append; readers fold the entry under the lock
_DEAD: list[int] = []
#: every declared subclass, in declaration order
_CLASSES: list[type["CounterSet"]] = []


class CounterSet:
    """Base of the per-subsystem counter sets (see the module docstring).

    Subclasses set ``METRICS`` and, for derived rates that
    :meth:`as_dict` should report beside the counters, ``RATES`` — the
    names of zero-argument methods.
    """

    METRICS: ClassVar[dict[str, tuple[str, str, str]]] = {}
    RATES: ClassVar[tuple[str, ...]] = ()
    #: counts of this class's garbage-collected sets (gauges stay 0)
    _retired: ClassVar[dict[str, int]]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        declared = {
            metric: other.__name__
            for other in _CLASSES
            for metric, _kind, _help in other.METRICS.values()
        }
        for metric, _kind, _help in cls.METRICS.values():
            if metric in declared:
                raise MetricError(
                    f"{metric} is declared by {declared[metric]} and "
                    f"{cls.__name__}; a family has one owner"
                )
        cls._retired = dict.fromkeys(cls.METRICS, 0)
        _CLASSES.append(cls)

    def __init__(self) -> None:
        values = self.__dict__
        values.update(dict.fromkeys(self.METRICS, 0))
        with _LOCK:
            _reap()
            _LIVE[id(values)] = (type(self), values)

    def __del__(self, _mark_dead=_DEAD.append) -> None:
        _mark_dead(id(self.__dict__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({fields})"

    def as_dict(self) -> dict[str, float]:
        """Every declared counter plus the derived rates, for reports,
        CLIs and the ``stats`` wire verb."""
        result = {name: getattr(self, name) for name in self.METRICS}
        for rate in self.RATES:
            result[rate] = getattr(self, rate)()
        return result


def _reap() -> None:
    """Fold garbage-collected sets into their class's retired totals
    (caller holds ``_LOCK``)."""
    while _DEAD:
        cls, values = _LIVE.pop(_DEAD.pop())
        for name, (_metric, kind, _help) in cls.METRICS.items():
            if kind == COUNTER:
                cls._retired[name] += values[name]


def _process_totals() -> tuple[
    dict[type[CounterSet], dict[str, int]], set[type[CounterSet]]
]:
    """Per class, every field's process-lifetime value — counters summed
    over live and retired sets, gauges the max over live sets — and the
    classes that have a live set."""
    with _LOCK:
        _reap()
        totals = {cls: dict(cls._retired) for cls in _CLASSES}
        live = list(_LIVE.values())
    for cls, values in live:
        total = totals[cls]
        for name, (_metric, kind, _help) in cls.METRICS.items():
            if kind == COUNTER:
                total[name] += values[name]
            elif values[name] > total[name]:
                total[name] = values[name]
    return totals, {cls for cls, _values in live}


def attach(registry: MetricsRegistry) -> None:
    """Make *registry* a live view of the counter sets from now on.

    The baseline is taken here, so a session reports what was counted
    while it was enabled — a second ``enable()`` in one process does
    not see the first session's counts.  A class's families appear once
    the session has seen a set of it (alive at a read, or retired with
    counts of its own), so a serving node does not export a router's
    zeros.
    """
    baseline, _live = _process_totals()

    def refresh() -> None:
        totals, live = _process_totals()
        for cls, total in totals.items():
            base = baseline[cls]
            if cls not in live and total == base:
                continue
            for name, (metric, kind, help_text) in cls.METRICS.items():
                if kind == COUNTER:
                    child = registry.counter(metric, help_text)._unlabeled()
                    child.value = float(total[name] - base[name])
                else:
                    child = registry.gauge(metric, help_text)._unlabeled()
                    child.value = float(total[name])

    registry.live_source = refresh


class QueryPathCounters(CounterSet):
    """Counters of the read-side fast path: pruning index + result cache.

    ``queries_total`` counts executed queries; the partition counters
    accumulate over their plans.  ``index_resolutions`` counts plans
    whose surviving set came from the inverted synopsis index,
    ``catalog_scan_resolutions`` those that tested every catalog entry
    (no index attached).  The ``cache_*`` counters are maintained by the
    :class:`~repro.query.cache.QueryResultCache` the counters object is
    attached to; a *stale drop* is an entry discarded because its
    partition's content version moved on — exact invalidation at work.
    ``python -m repro query-path`` reads one table's set, ``python -m
    repro obs`` the registry's view over all of them.
    """

    METRICS = {
        "queries_total": ("repro_query_queries_total", COUNTER, "Queries executed through the fast path"),
        "partitions_considered": ("repro_query_partitions_considered_total", COUNTER, "Partitions considered across query plans"),
        "partitions_scanned": ("repro_query_partitions_scanned_total", COUNTER, "Partition scans performed by queries"),
        "partitions_pruned": ("repro_query_partitions_pruned_total", COUNTER, "Partitions eliminated by synopsis pruning"),
        "index_resolutions": ("repro_query_index_resolutions_total", COUNTER, "Plans resolved via the inverted synopsis index"),
        "catalog_scan_resolutions": ("repro_query_catalog_scan_resolutions_total", COUNTER, "Plans resolved by scanning the full catalog"),
        "cache_hits": ("repro_query_cache_hits_total", COUNTER, "Result-cache hits"),
        "cache_misses": ("repro_query_cache_misses_total", COUNTER, "Result-cache misses"),
        "cache_stale_drops": ("repro_query_cache_stale_drops_total", COUNTER, "Cache entries dropped on content-version mismatch"),
        "cache_evictions": ("repro_query_cache_evictions_total", COUNTER, "Cache entries evicted by LRU capacity"),
        "rows_served_from_cache": ("repro_query_rows_served_from_cache_total", COUNTER, "Rows served from the result cache"),
    }
    RATES = ("cache_hit_rate", "pruning_ratio")

    def cache_hit_rate(self) -> float:
        """Hits over lookups (1.0 when the cache saw no traffic)."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 1.0
        return self.cache_hits / lookups

    def pruning_ratio(self) -> float:
        """Fraction of considered partitions eliminated before scanning."""
        if self.partitions_considered == 0:
            return 0.0
        return self.partitions_pruned / self.partitions_considered


class ServerCounters(CounterSet):
    """Counters of the online serving layer (:mod:`repro.server`).

    The admission half: ``writes_shed_overloaded`` counts modifications
    bounced with the explicit ``overloaded`` status,
    ``queue_high_watermark`` is the deepest write queue observed.  The
    concurrency half counts what the batcher and the cooperative
    maintenance task did between requests: batches flushed under the
    exclusive lock, merge passes, reorganizations.
    """

    METRICS = {
        "connections_opened": ("repro_server_connections_opened_total", COUNTER, "Client connections accepted"),
        "connections_closed": ("repro_server_connections_closed_total", COUNTER, "Client connections closed"),
        "requests_total": ("repro_server_requests_handled_total", COUNTER, "Requests read off client sockets"),
        "requests_failed": ("repro_server_requests_failed_total", COUNTER, "Requests answered with a non-ok status"),
        "bad_requests": ("repro_server_bad_requests_total", COUNTER, "Frames refused as malformed (protocol errors)"),
        "writes_applied": ("repro_server_writes_applied_total", COUNTER, "Modifications applied through the batcher"),
        "writes_rejected": ("repro_server_writes_rejected_total", COUNTER, "Modifications rolled back by validation or sink refusal"),
        "writes_shed_overloaded": ("repro_server_writes_shed_overloaded_total", COUNTER, "Modifications shed by admission backpressure"),
        "writes_shed_shutdown": ("repro_server_writes_shed_shutdown_total", COUNTER, "Modifications refused during drain"),
        "batches_flushed": ("repro_server_batches_flushed_total", COUNTER, "Write batches applied under the exclusive lock"),
        "queries_served": ("repro_server_queries_served_total", COUNTER, "Attribute queries answered"),
        "sql_served": ("repro_server_sql_served_total", COUNTER, "SQL statements answered"),
        "maintenance_passes": ("repro_server_maintenance_passes_total", COUNTER, "Cooperative maintenance passes run between batches"),
        "partitions_merged": ("repro_server_partitions_merged_total", COUNTER, "Partition merges performed by maintenance"),
        "reorganizations": ("repro_server_reorganizations_total", COUNTER, "Catalog reorganizations performed by maintenance"),
        "queue_high_watermark": ("repro_server_queue_high_watermark", GAUGE, "Deepest server write queue observed"),
        "wal_writes_logged": ("repro_server_wal_writes_logged_total", COUNTER, "Acknowledged writes journaled to the node WAL"),
        "wal_records_replayed": ("repro_server_wal_records_replayed_total", COUNTER, "Node WAL records replayed on restart"),
        "connections_force_closed": ("repro_server_connections_force_closed_total", COUNTER, "Connections aborted at the drain deadline"),
        "checkpoints_taken": ("repro_server_checkpoints_taken_total", COUNTER, "Node checkpoints taken (snapshot written, WAL reset)"),
        "checkpoint_records_truncated": ("repro_server_checkpoint_records_truncated_total", COUNTER, "WAL records truncated by node checkpoints"),
        "sync_pages_served": ("repro_server_sync_pages_served_total", COUNTER, "sync_snapshot pages served to resyncing peers"),
        "sync_deltas_applied": ("repro_server_sync_deltas_applied_total", COUNTER, "sync_delta chunks applied from the router"),
        "sync_entities_received": ("repro_server_sync_entities_received_total", COUNTER, "Entities received through sync_delta chunks"),
        "snapshots_published": ("repro_server_snapshots_published_total", COUNTER, "MVCC snapshots published by writers"),
        "snapshot_reads": ("repro_server_snapshot_reads_total", COUNTER, "Reads served lock-free from MVCC snapshots"),
        "snapshot_response_cache_hits": ("repro_server_snapshot_response_cache_hits_total", COUNTER, "Queries answered from a snapshot's pre-serialized response cache"),
        "admission_window": ("repro_server_admission_window", GAUGE, "Adaptive write-admission window (queued writes admitted)"),
        "adapt_decisions": ("repro_server_adapt_decisions_total", COUNTER, "Adaptation decisions evaluated by the serving node"),
        "adapt_actions": ("repro_server_adapt_actions_total", COUNTER, "Adaptation actions (reorganize/merge) applied by the serving node"),
    }
    RATES = ("shed_rate",)

    def shed_rate(self) -> float:
        """Shed modifications over all modification submissions."""
        shed = self.writes_shed_overloaded + self.writes_shed_shutdown
        attempted = self.writes_applied + self.writes_rejected + shed
        if attempted == 0:
            return 0.0
        return shed / attempted


class AdaptationCounters(CounterSet):
    """Decision counts of the adaptation controller (:mod:`repro.adapt`).

    Every decision the controller makes increments ``decisions_total``
    plus exactly one outcome counter: an ``acted_*`` counter when a plan
    was applied, or a ``declined_*`` counter naming the gate that
    stopped the pipeline.  The split makes the headline properties
    checkable from metrics alone — a stationary workload shows only
    ``declined_*`` growth, and the number of physical reorganizations
    during a shift is ``acted_reorganize``.
    """

    METRICS = {
        "decisions_total": ("repro_adapt_decisions_total", COUNTER, "Adaptation decisions made by the controller"),
        "acted_reorganize": ("repro_adapt_acted_reorganize_total", COUNTER, "Adaptation decisions that reorganized the catalog"),
        "acted_merge": ("repro_adapt_acted_merge_total", COUNTER, "Adaptation decisions that merged small partitions"),
        "declined_insufficient_traffic": ("repro_adapt_declined_insufficient_traffic_total", COUNTER, "Decisions declined: too few observed queries"),
        "declined_budget_exhausted": ("repro_adapt_declined_budget_exhausted_total", COUNTER, "Decisions declined: bounded action budget spent"),
        "declined_cooldown": ("repro_adapt_declined_cooldown_total", COUNTER, "Decisions declined: within the cooldown window"),
        "declined_baseline_established": ("repro_adapt_declined_baseline_established_total", COUNTER, "Decisions declined while blessing the reference profile"),
        "declined_no_shift": ("repro_adapt_declined_no_shift_total", COUNTER, "Decisions declined: workload shift below threshold"),
        "declined_below_threshold": ("repro_adapt_declined_below_threshold_total", COUNTER, "Decisions declined: predicted win below hysteresis"),
        "calibration_refits": ("repro_adapt_calibration_refits_total", COUNTER, "Cost-model refits adopted by the controller"),
    }


class RouterCounters(CounterSet):
    """Counters of the routing tier (:mod:`repro.router`).

    The reply triple is the partial-result contract made countable:
    ``replies_complete`` (every needed shard answered),
    ``replies_degraded`` (some shards missing — the response says which)
    and ``replies_unavailable`` (no reachable replica for a needed
    shard; retryable).  The health half counts the circuit breaker's
    life: per-node ejections, probes, restores, and the catch-up writes
    replayed to a node that came back.
    """

    METRICS = {
        "connections_opened": ("repro_router_connections_opened_total", COUNTER, "Client connections accepted by the router"),
        "connections_closed": ("repro_router_connections_closed_total", COUNTER, "Router client connections closed"),
        "requests_total": ("repro_router_requests_total", COUNTER, "Requests handled by the router"),
        "requests_failed": ("repro_router_requests_failed_total", COUNTER, "Router requests answered with a non-ok status"),
        "bad_requests": ("repro_router_bad_requests_total", COUNTER, "Frames the router refused as malformed"),
        "connections_force_closed": ("repro_router_connections_force_closed_total", COUNTER, "Router connections aborted at the drain deadline"),
        "writes_routed": ("repro_router_writes_routed_total", COUNTER, "Writes routed to their owning shard"),
        "queries_scattered": ("repro_router_queries_scattered_total", COUNTER, "Queries fanned out across shards"),
        "rows_reencoded": ("repro_router_rows_reencoded_total", COUNTER, "Gathered rows the scatter merge re-encoded: their reply did not carry them as spliceable bytes"),
        "replies_complete": ("repro_router_replies_complete_total", COUNTER, "Router replies with every shard answering"),
        "replies_degraded": ("repro_router_replies_degraded_total", COUNTER, "Router replies missing at least one shard"),
        "replies_unavailable": ("repro_router_replies_unavailable_total", COUNTER, "Router replies refused: no reachable replica"),
        "upstream_retries": ("repro_router_upstream_retries_total", COUNTER, "Retried upstream attempts (same node)"),
        "failovers": ("repro_router_failovers_total", COUNTER, "Requests served by a non-primary replica"),
        "node_ejections": ("repro_router_node_ejections_total", COUNTER, "Circuit-breaker ejections of upstream nodes"),
        "node_restores": ("repro_router_node_restores_total", COUNTER, "Upstream nodes restored after a successful probe"),
        "probes_sent": ("repro_router_probes_sent_total", COUNTER, "Probe requests sent to ejected nodes"),
        "catchup_replayed": ("repro_router_catchup_replayed_total", COUNTER, "Buffered writes replayed to a restored node"),
        "catchup_dropped": ("repro_router_catchup_dropped_total", COUNTER, "Buffered catch-up writes dropped (bounded buffer overflow)"),
        "nodes_diverged": ("repro_router_nodes_diverged_total", COUNTER, "Replicas marked diverged after catch-up overflow"),
        "resyncs_started": ("repro_router_resyncs_started_total", COUNTER, "Replica resyncs started by the router"),
        "resyncs_completed": ("repro_router_resyncs_completed_total", COUNTER, "Replica resyncs completed and re-admitted"),
        "resyncs_failed": ("repro_router_resyncs_failed_total", COUNTER, "Replica resync attempts that failed (will retry)"),
        "sync_entities_streamed": ("repro_router_sync_entities_streamed_total", COUNTER, "Entities streamed from healthy peers during resync"),
        "obs_scrapes": ("repro_router_obs_scrapes_total", COUNTER, "Cluster observability scrapes federated by the router"),
    }
    RATES = ("availability",)

    def availability(self) -> float:
        """Fraction of routed requests answered completely (1.0 when idle)."""
        answered = (
            self.replies_complete + self.replies_degraded
            + self.replies_unavailable
        )
        if answered == 0:
            return 1.0
        return self.replies_complete / answered
