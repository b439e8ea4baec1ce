"""Modelled shared-nothing cluster: which node hosts which partition.

Section II names distributed databases as the most obvious home of the
online partitioning problem: "partitions are distributed among the
nodes".  This module models that deployment level for
``benchmarks/bench_distributed.py``: a fixed set of nodes, each hosting
whole partitions, with capacity-balanced placement.  It is a placement
cost model, not a system — partition contents stay in the caller's
catalog; the cluster tracks which node must be contacted for which
partition and how much data lives where.  The cluster that serves
requests (replication, failover, repair) is :mod:`repro.router`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: tolerance for floating-point load accounting
_EPSILON = 1e-9


class PlacementError(RuntimeError):
    """Raised on inconsistent placement operations."""


@dataclass
class Node:
    """One cluster node: hosted partitions and their total size."""

    node_id: int
    partitions: set[int] = field(default_factory=set)
    load: float = 0.0


class SimulatedCluster:
    """Nodes plus least-loaded placement of partitions.

    Placement policy: a new partition lands on the currently
    least-loaded node (ties broken by node id).  Growing or shrinking a
    partition adjusts its node's load in place; partitions never
    migrate unless dropped and re-placed (Cinderella's splits do
    exactly that).
    """

    def __init__(self, node_count: int) -> None:
        if node_count < 1:
            raise ValueError("a cluster needs at least one node")
        self.nodes = [Node(node_id) for node_id in range(node_count)]
        self._node_of: dict[int, int] = {}
        self._sizes: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def partition_count(self) -> int:
        return len(self._sizes)

    def node_of(self, pid: int) -> int:
        """The node hosting partition *pid*."""
        try:
            return self._node_of[pid]
        except KeyError:
            raise PlacementError(f"partition {pid} is not placed") from None

    def place_partition(self, pid: int, size: float = 0.0) -> int:
        """Place a new partition on the least-loaded node; return its id."""
        if pid in self._sizes:
            raise PlacementError(f"partition {pid} already placed")
        node = min(self.nodes, key=lambda n: (n.load, n.node_id))
        node.partitions.add(pid)
        node.load += size
        self._node_of[pid] = node.node_id
        self._sizes[pid] = size
        return node.node_id

    def drop_partition(self, pid: int) -> None:
        node = self.nodes[self.node_of(pid)]
        node.partitions.discard(pid)
        node.load = max(0.0, node.load - self._sizes.pop(pid))
        del self._node_of[pid]

    def resize_partition(self, pid: int, delta: float) -> None:
        """Adjust a partition's size contribution on its node.

        Rejects (with :class:`PlacementError`) any delta that would
        drive the partition's tracked size or its node's load negative —
        silently corrupted load accounting is worse than a loud failure.
        """
        node = self.nodes[self.node_of(pid)]
        new_size = self._sizes[pid] + delta
        if new_size < -_EPSILON:
            raise PlacementError(
                f"resize of partition {pid} by {delta} would make its "
                f"tracked size negative ({new_size})"
            )
        if node.load + delta < -_EPSILON:
            raise PlacementError(
                f"resize of partition {pid} by {delta} would make node "
                f"{node.node_id}'s load negative"
            )
        node.load = max(0.0, node.load + delta)
        self._sizes[pid] = max(0.0, new_size)

    def partition_size(self, pid: int) -> float:
        self.node_of(pid)  # raise if unplaced
        return self._sizes[pid]

    def loads(self) -> list[float]:
        return [node.load for node in self.nodes]

    def imbalance(self) -> float:
        """max/mean load ratio — 1.0 is perfectly balanced."""
        loads = self.loads()
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 1.0
        return max(loads) / mean

    def nodes_for_partitions(self, pids) -> set[int]:
        """The set of nodes a query over these partitions must contact."""
        return {self.node_of(pid) for pid in pids}
