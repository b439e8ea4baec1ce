"""The routing tier: partition-aware serving over a cluster of nodes.

This package is the repo's cluster: it puts replication, failover and
repair in front of the asyncio serving layer (:mod:`repro.server`) as
one network-facing system (:mod:`repro.distributed` is only the
Section II placement cost model):

* :mod:`repro.router.placement` — the deterministic shard → replica-set
  mapping (``shard_of(eid) = eid % n_shards``, rotated replicas);
* :mod:`repro.router.health` — the per-node circuit breaker
  (healthy → suspect → ejected → probing) with jittered, exponentially
  growing ejection windows;
* :mod:`repro.router.pool` — pipelined upstream channels, one per
  client session and node, where *every* failure mode (refused,
  timeout, EOF, garbage) collapses into one typed
  :class:`~repro.router.pool.UpstreamError`;
* :mod:`repro.router.router` — :class:`CinderellaRouter` itself:
  partition-aware write fan-out with catch-up buffering, scatter-gather
  reads with per-shard replica failover, and the explicit
  complete / ``degraded`` / ``node_unavailable`` partial-result
  contract on the wire;
* :mod:`repro.router.testing` — :class:`ClusterHarness`, the
  nodes-plus-router topology with ``kill_node`` / ``restart_node``
  chaos verbs.

The router's TCP front door — listener, sessions, framing, request
accounting, bounded drain — is the serving node's
(:mod:`repro.server.frontdoor`), and so is its in-process harness
(:class:`~repro.server.testing.ServerThread` runs either tier).

Start one with ``python -m repro route``; see
``docs/DISTRIBUTED_SERVING.md``.
"""

from repro.router.health import EJECTED, HEALTHY, PROBING, SUSPECT, NodeHealth
from repro.router.placement import (
    ROUTER_EID_BASE,
    NodeAddress,
    PlacementMap,
)
from repro.router.pool import NodePool, UpstreamError
from repro.router.router import CinderellaRouter, RouterConfig
from repro.router.testing import ClusterHarness

__all__ = [
    "CinderellaRouter",
    "ClusterHarness",
    "EJECTED",
    "HEALTHY",
    "NodeAddress",
    "NodeHealth",
    "NodePool",
    "PROBING",
    "PlacementMap",
    "ROUTER_EID_BASE",
    "RouterConfig",
    "SUSPECT",
    "UpstreamError",
]
