"""A distributed universal store: Cinderella partitions across nodes.

Binds a logical partitioner (Cinderella or a baseline) to a
:class:`~repro.distributed.cluster.SimulatedCluster`:

* every partition the partitioner creates is placed on the least-loaded
  live nodes (``replication_factor`` copies on distinct nodes); drops
  free the nodes; size changes (inserts, deletes, splits, moves) adjust
  node loads;
* queries are routed by synopsis pruning — only nodes hosting a
  non-prunable partition are contacted, the distributed payoff of the
  paper's Section II setting;
* routing is *failover-aware*: a request to a crashed or flaky node
  times out (cost accounted by the :class:`NetworkCostModel`) and is
  retried against the next replica with exponential backoff.  Only when
  every copy of a needed partition is unreachable does the query
  degrade — explicitly, via ``degraded=True`` and the unreachable
  partition set in its stats — rather than silently losing rows;
* every state-mutating operation can be journaled to a
  :class:`~repro.storage.wal.WriteAheadLog`, so a crashed coordinator
  recovers the exact pre-crash catalog and placement from
  ``snapshot + WAL`` (see :meth:`DistributedUniversalStore.checkpoint`
  and :meth:`DistributedUniversalStore.recover`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.core.config import CinderellaConfig
from repro.core.partitioner import CinderellaPartitioner
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.failures import FailureEvent, NodeState
from repro.obs import runtime as obs
from repro.obs.counters import FaultToleranceCounters, RobustnessCounters


@dataclass(frozen=True)
class NetworkCostModel:
    """Latency model for coordinator/node communication (milliseconds)."""

    #: per contacted node: request/response round trip
    round_trip_ms: float = 0.5
    #: per entity scanned on a node (remote CPU)
    remote_scan_ms: float = 0.001
    #: per relevant entity shipped back to the coordinator
    transfer_ms: float = 0.002
    #: time before the coordinator declares a request dead
    timeout_ms: float = 5.0
    #: base of the exponential backoff between retries
    retry_backoff_ms: float = 0.5
    #: how many times the coordinator cycles a partition's replica list
    #: before giving up on flaky nodes
    max_retry_rounds: int = 2

    def query_latency_ms(
        self, per_node_scanned: dict[int, float], per_node_returned: dict[int, float]
    ) -> float:
        """Nodes work in parallel: latency = slowest node + one round trip."""
        if not per_node_scanned:
            return 0.0
        slowest = max(
            self.remote_scan_ms * per_node_scanned[node]
            + self.transfer_ms * per_node_returned.get(node, 0.0)
            for node in per_node_scanned
        )
        return self.round_trip_ms + slowest

    def retry_penalty_ms(self, attempt: int) -> float:
        """Cost of the *attempt*-th failed request: timeout + backoff."""
        return self.timeout_ms + self.retry_backoff_ms * (2 ** attempt)


@dataclass
class DistributedQueryStats:
    """Routing outcome of one distributed query.

    ``degraded`` is the explicit incomplete-result marker: True when at
    least one non-prunable partition had no reachable copy, in which
    case ``unreachable_partitions`` lists exactly which ones and the
    scanned/returned figures cover only the reachable partitions.
    """

    nodes_total: int
    nodes_contacted: int
    partitions_scanned: int
    partitions_pruned: int
    entities_scanned: float
    entities_returned: float
    latency_ms: float
    degraded: bool = False
    unreachable_partitions: tuple[int, ...] = ()
    retries: int = 0
    failovers: int = 0


class DistributedUniversalStore:
    """Coordinator view: logical partitioner + cluster placement.

    The partitioner can be a :class:`CinderellaPartitioner` or any
    baseline with the same ``insert``/``delete``/``update`` outcome
    contract (e.g. :class:`repro.baselines.HashPartitioner`), so the
    distributed benefit of schema-aware partitioning is directly
    comparable.
    """

    def __init__(
        self,
        node_count: int,
        partitioner=None,
        network: Optional[NetworkCostModel] = None,
        replication_factor: int = 1,
        wal=None,
    ) -> None:
        self.partitioner = (
            partitioner
            if partitioner is not None
            else CinderellaPartitioner(CinderellaConfig())
        )
        if len(self.partitioner.catalog):
            raise ValueError("the partitioner must start empty")
        self.cluster = SimulatedCluster(
            node_count, replication_factor=replication_factor
        )
        self.network = network if network is not None else NetworkCostModel()
        self.counters = FaultToleranceCounters()
        self.robustness = RobustnessCounters()
        self.wal = wal
        self.journal = None
        if wal is not None:
            from repro.txn.journal import OperationJournal

            self.journal = OperationJournal(wal)
        self._replaying = False
        #: client operation ids already applied (idempotent-retry dedup);
        #: rebuilt from snapshot + WAL payloads on recovery
        self.applied_op_ids: set[str] = set()

    @property
    def catalog(self):
        return self.partitioner.catalog

    # ------------------------------------------------------------------
    # write-ahead logging
    # ------------------------------------------------------------------
    def _log(self, op: str, payload: dict) -> None:
        """Journal one operation *before* applying it (write-ahead)."""
        if self.wal is not None and not self._replaying:
            self.wal.append(op, payload)
            self.counters.wal_records_appended += 1

    # ------------------------------------------------------------------
    # modifications (placement mirrored from partitioner outcomes)
    # ------------------------------------------------------------------
    def _entity_size(self, eid: int) -> float:
        """An entity's SIZE(), read from its (final) catalog location.

        Sizes depend only on the entity's synopsis/payload, never on the
        hosting partition, so the final location is authoritative even
        while replaying a multi-move cascade.
        """
        pid = self.catalog.partition_of(eid)
        return self.catalog.get(pid).member(eid)[1]

    def _sync_placement(
        self, outcome, pre_adjusted: Optional[tuple[int, int]] = None
    ) -> None:
        """Mirror an outcome's partition churn onto the cluster.

        ``pre_adjusted = (eid, pid)`` marks one entity whose departure
        from *pid* the caller already subtracted (the update path removes
        the entity before re-inserting it); only that entity's *first*
        move out of *pid* skips the source-side resize.
        """
        for pid in outcome.created_partitions:
            self.cluster.place_partition(pid, 0.0)
        for move in outcome.moves:
            size = self._entity_size(move.eid)
            if move.from_pid is not None:
                if pre_adjusted == (move.eid, move.from_pid):
                    pre_adjusted = None  # consumed: later moves resize
                else:
                    self.cluster.resize_partition(move.from_pid, -size)
            self.cluster.resize_partition(move.to_pid, size)
        for pid in outcome.dropped_partitions:
            self.cluster.drop_partition(pid)

    def _already_applied(self, op_id: Optional[str]) -> bool:
        """Idempotent-retry check: True when *op_id* was applied before.

        Client op ids should avoid the journal's ``op-<n>`` namespace
        (see :mod:`repro.txn.journal`); anything else — UUIDs,
        ``client-7/42`` — is fine.
        """
        if op_id is not None and op_id in self.applied_op_ids:
            self.robustness.ingest_replayed += 1
            return True
        return False

    def _payload(self, op_id: Optional[str], **fields) -> dict:
        if op_id is not None:
            fields["op_id"] = op_id
        return fields

    def _mark_applied(self, op_id: Optional[str]) -> None:
        if op_id is not None:
            self.applied_op_ids.add(op_id)

    def insert(self, eid: int, mask: int, op_id: Optional[str] = None):
        if self._already_applied(op_id):
            return None
        self._log("insert", self._payload(op_id, eid=eid, mask=mask))
        outcome = self.partitioner.insert(eid, mask)
        self._sync_placement(outcome)
        self._mark_applied(op_id)
        return outcome

    def delete(self, eid: int, op_id: Optional[str] = None):
        if self._already_applied(op_id):
            return None
        self._log("delete", self._payload(op_id, eid=eid))
        pid = self.catalog.partition_of(eid)
        _mask, size = self.catalog.get(pid).member(eid)
        outcome = self.partitioner.delete(eid)
        if pid not in outcome.dropped_partitions:
            self.cluster.resize_partition(pid, -size)
        for dropped in outcome.dropped_partitions:
            self.cluster.drop_partition(dropped)
        self._mark_applied(op_id)
        return outcome

    def update(self, eid: int, mask: int, op_id: Optional[str] = None):
        if self._already_applied(op_id):
            return None
        self._log("update", self._payload(op_id, eid=eid, mask=mask))
        pid = self.catalog.partition_of(eid)
        _old_mask, old_size = self.catalog.get(pid).member(eid)
        outcome = self.partitioner.update(eid, mask)
        if outcome.in_place:
            new_size = self.catalog.get(pid).member(eid)[1]
            self.cluster.resize_partition(pid, new_size - old_size)
            self._mark_applied(op_id)
            return outcome
        if pid not in outcome.dropped_partitions:
            self.cluster.resize_partition(pid, -old_size)
        # else: the drop inside _sync_placement subtracts the partition's
        # full remaining tracked size, entity included — no pre-adjustment
        self._sync_placement(outcome, pre_adjusted=(eid, pid))
        self._mark_applied(op_id)
        return outcome

    # ------------------------------------------------------------------
    # journaled maintenance (transactional catalog operations)
    # ------------------------------------------------------------------
    def _maintenance_journal(self):
        """The operation journal, or None while replaying (no re-logging)."""
        return self.journal if not self._replaying else None

    def merge_small(
        self,
        min_fill: float = 0.25,
        query_masks=None,
        crash_hook=None,
    ):
        """Run an atomic merge pass and mirror it onto the cluster.

        The catalog half runs inside an undo-log transaction journaled
        as one operation (see :func:`repro.txn.ops.atomic_merge`); the
        cluster placement is only touched after the catalog op commits,
        so a crash mid-merge leaves both layers at their exact pre-op
        state.  Replayed deterministically from the ``op_commit``
        record on recovery.
        """
        from repro.txn.ops import atomic_merge

        report = atomic_merge(
            self.partitioner,
            min_fill,
            query_masks,
            journal=self._maintenance_journal(),
            crash_hook=crash_hook,
            counters=self.robustness,
        )
        for move in report.moves:
            size = self._entity_size(move.eid)
            self.cluster.resize_partition(move.from_pid, -size)
            self.cluster.resize_partition(move.to_pid, size)
        for pid in report.dropped_partitions:
            self.cluster.drop_partition(pid)
        return report

    def reorganize_catalog(
        self,
        order: str = "size",
        query_masks=None,
        crash_hook=None,
    ):
        """Rebuild the partitioning atomically and re-place it.

        The rebuild happens on a scratch partitioner; the live catalog
        adopts it in one swap directly before the commit record (see
        :func:`repro.txn.ops.atomic_reorganize`).  Placement is rebuilt
        only after the commit: old partitions are dropped from the
        cluster and the new ones placed fresh on the least-loaded
        nodes — deterministic, so WAL replay reproduces it exactly.
        """
        from repro.txn.ops import atomic_reorganize

        old_pids = sorted(self.catalog.partition_ids())
        report = atomic_reorganize(
            self.partitioner,
            query_masks=query_masks,
            order=order,
            journal=self._maintenance_journal(),
            crash_hook=crash_hook,
            counters=self.robustness,
        )
        for pid in old_pids:
            self.cluster.drop_partition(pid)
        for partition in sorted(self.catalog, key=lambda p: p.pid):
            self.cluster.place_partition(partition.pid, partition.total_size)
        return report

    # ------------------------------------------------------------------
    # failure events and repair
    # ------------------------------------------------------------------
    def crash_node(self, node_id: int) -> None:
        self._log("crash", {"node": node_id})
        self.cluster.crash_node(node_id)
        self.counters.node_crashes += 1
        obs.event("fault.crash", node=node_id)

    def recover_node(self, node_id: int) -> None:
        self._log("recover", {"node": node_id})
        self.cluster.recover_node(node_id)
        self.counters.node_recoveries += 1
        obs.event("fault.recover", node=node_id)

    def degrade_node(
        self, node_id: int, slowdown: float = 4.0, drop_every: int = 0
    ) -> None:
        self._log(
            "degrade",
            {"node": node_id, "slowdown": slowdown, "drop_every": drop_every},
        )
        self.cluster.degrade_node(node_id, slowdown=slowdown, drop_every=drop_every)
        self.counters.node_degradations += 1
        obs.event(
            "fault.degrade", node=node_id, slowdown=slowdown,
            drop_every=drop_every,
        )

    def apply_event(self, event: FailureEvent) -> None:
        """Apply one :class:`FailureEvent` from a schedule."""
        if event.action == "crash":
            self.crash_node(event.node_id)
        elif event.action == "recover":
            self.recover_node(event.node_id)
        elif event.action == "degrade":
            self.degrade_node(
                event.node_id,
                slowdown=event.slowdown,
                drop_every=event.drop_every,
            )
        else:  # pragma: no cover - FailureEvent validates its action
            raise ValueError(f"unknown failure action {event.action!r}")

    def re_replicate(self) -> list[tuple[int, int]]:
        """Run the repair pass (see ``SimulatedCluster.re_replicate``);
        returns the (pid, node) copies it created."""
        self._log("re_replicate", {})
        with obs.span("distributed.re_replicate") as span:
            created = self.cluster.re_replicate()
            if span.is_recording:
                span.set("replicas_created", len(created))
        self.counters.re_replication_passes += 1
        self.counters.replicas_created += len(created)
        obs.event("fault.repair", replicas_created=len(created))
        return created

    # ------------------------------------------------------------------
    # query routing
    # ------------------------------------------------------------------
    def _attempt_hosts(self, pid: int) -> tuple[Optional[int], float, int]:
        """Find a copy of *pid* that answers; model timeouts on the way.

        Walks the replica list primary-first, cycling up to
        ``max_retry_rounds`` times (a DEGRADED node may drop one request
        and serve the next).  Returns ``(serving node or None,
        accumulated penalty ms, failed attempts)``.
        """
        hosts = self.cluster.replica_nodes(pid)
        if not hosts:
            return None, 0.0, 0
        penalty = 0.0
        attempt = 0
        for _round in range(self.network.max_retry_rounds):
            for node_id in hosts:
                node = self.cluster.nodes[node_id]
                if node.state is NodeState.DOWN:
                    penalty += self.network.retry_penalty_ms(attempt)
                    attempt += 1
                    continue
                node.requests_served += 1
                if (
                    node.state is NodeState.DEGRADED
                    and node.drop_every > 0
                    and node.requests_served % node.drop_every == 0
                ):
                    penalty += self.network.retry_penalty_ms(attempt)
                    attempt += 1
                    continue
                return node_id, penalty, attempt
            if all(
                self.cluster.nodes[nid].state is NodeState.DOWN for nid in hosts
            ):
                break  # every copy is down; further rounds cannot succeed
        return None, penalty, attempt

    def route_query(self, query_mask: int) -> DistributedQueryStats:
        """Prune by synopsis, contact surviving replicas of the rest."""
        with obs.span("distributed.route_query") as span:
            stats = self._route_query(query_mask)
            if span.is_recording:
                span.set("nodes_contacted", stats.nodes_contacted)
                span.set("retries", stats.retries)
                span.set("degraded", stats.degraded)
        if stats.degraded:
            obs.event(
                "distributed.degraded_query",
                unreachable=list(stats.unreachable_partitions),
            )
        return stats

    def _route_query(self, query_mask: int) -> DistributedQueryStats:
        per_node_scanned: dict[int, float] = {}
        per_node_returned: dict[int, float] = {}
        scanned = 0
        pruned = 0
        entities_scanned = 0.0
        entities_returned = 0.0
        penalty_ms = 0.0
        retries = 0
        failovers = 0
        unreachable: list[int] = []
        for partition in self.catalog:
            if partition.mask & query_mask == 0:
                pruned += 1
                continue
            scanned += 1
            node_id, penalty, attempts = self._attempt_hosts(partition.pid)
            penalty_ms += penalty
            retries += attempts
            if node_id is None:
                unreachable.append(partition.pid)
                continue
            hosts = self.cluster.replica_nodes(partition.pid)
            if node_id != hosts[0]:
                failovers += 1
            node = self.cluster.nodes[node_id]
            relevant = sum(
                size
                for _eid, mask, size in partition.members()
                if mask & query_mask
            )
            per_node_scanned[node_id] = (
                per_node_scanned.get(node_id, 0.0)
                + partition.total_size * node.slowdown
            )
            per_node_returned[node_id] = (
                per_node_returned.get(node_id, 0.0) + relevant
            )
            entities_scanned += partition.total_size
            entities_returned += relevant
        degraded = bool(unreachable)
        stats = DistributedQueryStats(
            nodes_total=len(self.cluster),
            nodes_contacted=len(per_node_scanned),
            partitions_scanned=scanned,
            partitions_pruned=pruned,
            entities_scanned=entities_scanned,
            entities_returned=entities_returned,
            latency_ms=self.network.query_latency_ms(
                per_node_scanned, per_node_returned
            ) + penalty_ms,
            degraded=degraded,
            unreachable_partitions=tuple(unreachable),
            retries=retries,
            failovers=failovers,
        )
        counters = self.counters
        counters.queries_total += 1
        counters.retries += retries
        counters.failovers += failovers
        if degraded:
            counters.queries_degraded += 1
            counters.unreachable_partition_hits += len(unreachable)
        return stats

    # ------------------------------------------------------------------
    # durability: checkpoint, replay, recovery
    # ------------------------------------------------------------------
    def checkpoint(self, snapshot_path: Union[str, Path]) -> None:
        """Snapshot the full coordinator state and truncate the WAL.

        After a checkpoint, recovery needs only this snapshot plus the
        WAL records appended since.
        """
        from repro.storage.snapshot import save_store

        save_store(self, snapshot_path)
        if self.wal is not None:
            self.wal.reset(basis_seq=self.wal.last_seq)

    def replay_wal(self, records) -> int:
        """Re-apply journaled operations; returns the count applied.

        Used by :meth:`recover`; records are not re-journaled.
        """
        from repro.storage.wal import (
            JOURNAL_ABORT,
            JOURNAL_BEGIN,
            JOURNAL_COMMIT,
            JOURNAL_STEP,
            WALFormatError,
        )

        self._replaying = True
        try:
            for record in records:
                payload = record.payload
                if record.op == "insert":
                    self.insert(
                        payload["eid"], payload["mask"],
                        op_id=payload.get("op_id"),
                    )
                elif record.op == "delete":
                    self.delete(payload["eid"], op_id=payload.get("op_id"))
                elif record.op == "update":
                    self.update(
                        payload["eid"], payload["mask"],
                        op_id=payload.get("op_id"),
                    )
                elif record.op == JOURNAL_COMMIT:
                    self._replay_committed_op(payload)
                elif record.op in (JOURNAL_BEGIN, JOURNAL_STEP, JOURNAL_ABORT):
                    # intent/progress/abort records carry no durable
                    # effects: replay acts on op_commit alone, so an
                    # operation a crash interrupted is simply skipped
                    pass
                elif record.op == "crash":
                    self.crash_node(payload["node"])
                elif record.op == "recover":
                    self.recover_node(payload["node"])
                elif record.op == "degrade":
                    self.degrade_node(
                        payload["node"],
                        slowdown=payload.get("slowdown", 4.0),
                        drop_every=payload.get("drop_every", 0),
                    )
                elif record.op == "re_replicate":
                    self.re_replicate()
                else:
                    raise WALFormatError(f"unknown WAL op {record.op!r}")
                self.counters.wal_records_replayed += 1
        finally:
            self._replaying = False
        return self.counters.wal_records_replayed

    def _replay_committed_op(self, payload: dict) -> None:
        """Re-run one committed maintenance operation deterministically."""
        from repro.storage.wal import WALFormatError

        kind = payload.get("kind")
        params = payload.get("params") or {}
        if kind == "merge":
            self.merge_small(
                params.get("min_fill", 0.25), params.get("query_masks")
            )
        elif kind == "reorganize":
            self.reorganize_catalog(
                order=params.get("order", "size"),
                query_masks=params.get("query_masks"),
            )
        else:
            raise WALFormatError(f"unknown committed operation kind {kind!r}")

    @classmethod
    def recover(
        cls,
        snapshot_path: Union[str, Path],
        wal_path: Union[str, Path],
        network: Optional[NetworkCostModel] = None,
    ) -> "DistributedUniversalStore":
        """Rebuild a crashed coordinator from ``snapshot + WAL``.

        Loads the store snapshot, verifies that the WAL's basis matches
        the snapshot's journal position, replays the tail, and attaches
        the WAL for further appends.  The result has the exact catalog
        and placement the coordinator had before it crashed.
        """
        from repro.storage.snapshot import load_store
        from repro.storage.wal import WALFormatError, WriteAheadLog

        store, wal_seq = load_store(snapshot_path, network=network)
        wal = WriteAheadLog(wal_path)
        if wal.basis_seq != wal_seq:
            raise WALFormatError(
                f"WAL basis {wal.basis_seq} does not match snapshot "
                f"journal position {wal_seq}"
            )
        store.replay_wal(wal.records())
        store.wal = wal
        from repro.txn.journal import OperationJournal

        store.journal = OperationJournal(wal)
        return store

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_placement(self) -> list[str]:
        """Cross-check cluster placement against the catalog."""
        problems = []
        cluster = self.cluster
        hosted: set[int] = set()
        for node in cluster.nodes:
            hosted.update(node.partitions)
        placed = hosted | set(cluster.unhosted_partitions())
        catalog_pids = set(self.catalog.partition_ids())
        if placed != catalog_pids:
            problems.append(
                f"placement/catalog mismatch: placed {placed} vs {catalog_pids}"
            )
        for pid in catalog_pids:
            expected = self.catalog.get(pid).total_size
            try:
                actual = cluster.partition_size(pid)
            except Exception as error:
                problems.append(f"partition {pid} untracked: {error}")
                continue
            if abs(expected - actual) > 1e-9:
                problems.append(
                    f"partition {pid} size drift: cluster {actual} vs "
                    f"catalog {expected}"
                )
            hosts = cluster.replica_nodes(pid)
            if len(set(hosts)) != len(hosts):
                problems.append(
                    f"partition {pid} has duplicate replica nodes {hosts}"
                )
            for nid in hosts:
                if pid not in cluster.nodes[nid].partitions:
                    problems.append(
                        f"partition {pid} maps to node {nid} but the node "
                        f"does not host it"
                    )
        for node in cluster.nodes:
            expected_load = sum(
                cluster.partition_size(pid) for pid in node.partitions
            )
            if abs(node.load - expected_load) > 1e-6:
                problems.append(
                    f"node {node.node_id} load drift: {node.load} vs "
                    f"hosted sum {expected_load}"
                )
        return problems
