"""The Section II placement experiment: Cinderella partitions on nodes.

Binds a logical partitioner (Cinderella or a baseline) to a
:class:`~repro.distributed.cluster.SimulatedCluster` — a placement cost
model for ``benchmarks/bench_distributed.py``; the cluster that serves
requests is :mod:`repro.router`:

* every partition the partitioner creates is placed on the least-loaded
  node; drops free the node; size changes (inserts, deletes, splits,
  moves) adjust node loads;
* queries are routed by synopsis pruning — only nodes hosting a
  non-prunable partition are contacted, the distributed payoff of the
  paper's Section II setting;
* a simple network cost model (per-contact round trip, per-entity
  remote scan and result transfer) turns routing into modelled latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import CinderellaConfig
from repro.core.partitioner import CinderellaPartitioner, Partitioner
from repro.distributed.cluster import PlacementError, SimulatedCluster


@dataclass(frozen=True)
class NetworkCostModel:
    """Latency model for coordinator/node communication (milliseconds)."""

    #: per contacted node: request/response round trip
    round_trip_ms: float = 0.5
    #: per entity scanned on a node (remote CPU)
    remote_scan_ms: float = 0.001
    #: per relevant entity shipped back to the coordinator
    transfer_ms: float = 0.002

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


@dataclass
class DistributedQueryStats:
    """Routing outcome of one distributed query."""

    nodes_total: int
    nodes_contacted: int
    partitions_scanned: int
    partitions_pruned: int
    entities_scanned: float
    entities_returned: float
    latency_ms: float


class DistributedUniversalStore:
    """Coordinator view: logical partitioner + cluster placement.

    The partitioner is any :class:`~repro.core.partitioner.Partitioner`
    (Cinderella by default, or e.g. :class:`repro.baselines.HashPartitioner`),
    so the distributed benefit of schema-aware partitioning is directly
    comparable.
    """

    def __init__(
        self,
        node_count: int,
        partitioner: Optional[Partitioner] = None,
        network: Optional[NetworkCostModel] = None,
    ) -> None:
        self.partitioner = (
            partitioner
            if partitioner is not None
            else CinderellaPartitioner(CinderellaConfig())
        )
        if len(self.partitioner.catalog):
            raise ValueError("the partitioner must start empty")
        self.cluster = SimulatedCluster(node_count)
        self.network = network if network is not None else NetworkCostModel()

    @property
    def catalog(self):
        return self.partitioner.catalog

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

    def insert(self, eid: int, mask: int):
        outcome = self.partitioner.insert(eid, mask)
        self._sync_placement(outcome)
        return outcome

    def delete(self, eid: int):
        pid = self.catalog.partition_of(eid)
        _mask, size = self.catalog.get(pid).member(eid)
        outcome = self.partitioner.delete(eid)
        if pid not in outcome.dropped_partitions:
            self.cluster.resize_partition(pid, -size)
        for dropped in outcome.dropped_partitions:
            self.cluster.drop_partition(dropped)
        return outcome

    def update(self, eid: int, mask: int):
        pid = self.catalog.partition_of(eid)
        _old_mask, old_size = self.catalog.get(pid).member(eid)
        outcome = self.partitioner.update(eid, mask)
        if outcome.in_place:
            new_size = self.catalog.get(pid).member(eid)[1]
            self.cluster.resize_partition(pid, new_size - old_size)
            return outcome
        if pid not in outcome.dropped_partitions:
            self.cluster.resize_partition(pid, -old_size)
        # else: the drop inside _sync_placement subtracts the partition's
        # full remaining tracked size, entity included — no pre-adjustment
        self._sync_placement(outcome, pre_adjusted=(eid, pid))
        return outcome

    # ------------------------------------------------------------------
    # query routing
    # ------------------------------------------------------------------
    def route_query(self, query_mask: int) -> DistributedQueryStats:
        """Prune by synopsis, contact only the hosting nodes."""
        per_node_scanned: dict[int, float] = {}
        per_node_returned: dict[int, float] = {}
        scanned = 0
        pruned = 0
        entities_scanned = 0.0
        entities_returned = 0.0
        for partition in self.catalog:
            if partition.mask & query_mask == 0:
                pruned += 1
                continue
            scanned += 1
            node = self.cluster.node_of(partition.pid)
            relevant = sum(
                size
                for _eid, mask, size in partition.members()
                if mask & query_mask
            )
            per_node_scanned[node] = (
                per_node_scanned.get(node, 0.0) + partition.total_size
            )
            per_node_returned[node] = per_node_returned.get(node, 0.0) + relevant
            entities_scanned += partition.total_size
            entities_returned += relevant
        return DistributedQueryStats(
            nodes_total=len(self.cluster),
            nodes_contacted=len(per_node_scanned),
            partitions_scanned=scanned,
            partitions_pruned=pruned,
            entities_scanned=entities_scanned,
            entities_returned=entities_returned,
            latency_ms=self.network.query_latency_ms(
                per_node_scanned, per_node_returned
            ),
        )

    def check_placement(self) -> list[str]:
        """Cross-check cluster placement against the catalog."""
        problems = []
        cluster = self.cluster
        placed: set[int] = set()
        for node in cluster.nodes:
            placed.update(node.partitions)
        catalog_pids = set(self.catalog.partition_ids())
        if placed != catalog_pids:
            problems.append(
                f"placement/catalog mismatch: placed {placed} vs {catalog_pids}"
            )
        for pid in catalog_pids:
            expected = self.catalog.get(pid).total_size
            try:
                actual = cluster.partition_size(pid)
            except PlacementError as error:
                problems.append(f"partition {pid} untracked: {error}")
                continue
            if abs(expected - actual) > 1e-9:
                problems.append(
                    f"partition {pid} size drift: cluster {actual} vs "
                    f"catalog {expected}"
                )
            if pid not in cluster.nodes[cluster.node_of(pid)].partitions:
                problems.append(
                    f"partition {pid} maps to node {cluster.node_of(pid)} "
                    f"but the node does not host it"
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
