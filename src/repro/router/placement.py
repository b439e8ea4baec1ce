"""Placement: which serving node owns which shard of the entity space.

The routing tier needs one deterministic answer to "where does entity
*e* live?" that every component — router, chaos harness, benchmark —
computes identically.  The scheme is the simplest one that still
exercises partition-aware routing and replica failover:

* the entity space is striped into ``n_shards`` shards by
  ``shard_of(eid) = eid % n_shards``;
* shard *s* is served by ``replication_factor`` nodes, *replica j* being
  ``nodes[(s + j) % len(nodes)]`` — the classic rotation, so every node
  carries the same number of primaries and the replica sets of adjacent
  shards overlap minimally.

Each node runs an ordinary :class:`~repro.server.server.CinderellaServer`
holding the *full* Cinderella machinery for its slice: the adaptive
partitioning from the paper operates per node, the placement map only
decides which node sees which entities.  (This is the PHD-Store /
AdPart layering: inter-node placement is hash-based and cheap, the
interesting adaptivity happens inside each node.)

Entity ids chosen by the router itself (eid-less inserts) start at
:data:`ROUTER_EID_BASE` so they can never collide with ids a client
picked explicitly — client-chosen ids stay below it in every test and
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

#: router-assigned entity ids start here (client-chosen ids stay below)
ROUTER_EID_BASE = 1 << 40


@dataclass(frozen=True)
class NodeAddress:
    """One serving node: a stable name plus its TCP endpoint."""

    name: str
    host: str
    port: int

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "host": self.host, "port": self.port}


class PlacementMap:
    """The deterministic shard → replica-set mapping (see module docs)."""

    def __init__(
        self,
        nodes: Sequence[NodeAddress],
        n_shards: int = 0,
        replication_factor: int = 1,
    ) -> None:
        if not nodes:
            raise ValueError("placement needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in placement: {names}")
        if n_shards <= 0:
            # default: a few shards per node, so scatter-gather and
            # rebalance-by-shard stay meaningful even on tiny clusters
            n_shards = 4 * len(nodes)
        if replication_factor <= 0:
            raise ValueError(
                f"replication_factor must be positive, got {replication_factor}"
            )
        self.nodes: tuple[NodeAddress, ...] = tuple(nodes)
        self.n_shards = n_shards
        #: effective factor — capped at the node count (replicating a
        #: shard twice onto the same node buys nothing)
        self.replication_factor = min(replication_factor, len(self.nodes))
        count = len(self.nodes)
        #: every shard's replica set, primary first, by shard: the map is
        #: immutable, so the sets are built once, here
        self.replica_sets: tuple[tuple[NodeAddress, ...], ...] = tuple(
            tuple(
                self.nodes[(shard + j) % count]
                for j in range(self.replication_factor)
            )
            for shard in range(n_shards)
        )

    # ------------------------------------------------------------------
    # the mapping
    # ------------------------------------------------------------------
    def shard_of(self, eid: int) -> int:
        """The shard owning entity *eid*."""
        return eid % self.n_shards

    def replicas(self, shard: int) -> tuple[NodeAddress, ...]:
        """The replica set of *shard*, primary first."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.n_shards})")
        return self.replica_sets[shard]

    def replicas_of_eid(self, eid: int) -> tuple[NodeAddress, ...]:
        """The replica set serving entity *eid*, primary first."""
        return self.replica_sets[eid % self.n_shards]

    @property
    def shards(self) -> range:
        return range(self.n_shards)

    def nodes_of(self, name: str) -> NodeAddress:
        """Look a node up by name; raises ``KeyError`` when unknown."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r} in placement")

    def shards_on(self, name: str) -> list[int]:
        """Every shard that has a replica on node *name*."""
        return [
            shard for shard, replicas in enumerate(self.replica_sets)
            if any(node.name == name for node in replicas)
        ]

    def as_dict(self) -> dict[str, Any]:
        """The placement as plain data (stats op, docs, debugging)."""
        return {
            "n_shards": self.n_shards,
            "replication_factor": self.replication_factor,
            "nodes": [node.as_dict() for node in self.nodes],
            "shards": {
                str(shard): [node.name for node in replicas]
                for shard, replicas in enumerate(self.replica_sets)
            },
        }
