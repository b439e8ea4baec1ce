"""Section II's deployment as a placement cost model: partitions on
modelled nodes, for ``benchmarks/bench_distributed.py``.  The cluster
that serves requests is :mod:`repro.router`."""

from repro.distributed.cluster import Node, PlacementError, SimulatedCluster
from repro.distributed.store import (
    DistributedQueryStats,
    DistributedUniversalStore,
    NetworkCostModel,
)

__all__ = [
    "DistributedQueryStats",
    "DistributedUniversalStore",
    "NetworkCostModel",
    "Node",
    "PlacementError",
    "SimulatedCluster",
]
