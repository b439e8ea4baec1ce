"""repro — a from-scratch reproduction of *Cinderella: Adaptive Online
Partitioning of Irregularly Structured Data* (Herrmann, Voigt, Lehner;
ICDE Workshops 2014).

The package implements the full system stack of the paper:

* :mod:`repro.core` — the Cinderella algorithm: synopsis ratings, split
  starters, Algorithm 1's insert/update/delete routines, the online
  ``Partitioner`` contract, the workload-based mode, and the one quality
  module (:mod:`repro.core.efficiency`): Definition 1, its cell-level
  form, and the Figure 7 partitioning statistics.
* :mod:`repro.catalog` — the system catalog: attribute dictionary,
  partition metadata, and the inverted synopsis index extension.
* :mod:`repro.storage` — the storage substrate: sparse interpreted
  records, slotted pages, heap files, buffer pool, I/O accounting.
* :mod:`repro.table` — the universal table over any layout (Cinderella,
  a baseline partitioner, or the unpartitioned one-partition layout)
  with transparent DML and pruned UNION ALL query execution;
  schema-emulating views for the TPC-H experiment.
* :mod:`repro.query` / :mod:`repro.cost` — attribute queries, pruning,
  rewriting, execution statistics, and the simulated cost model.
* :mod:`repro.workloads` — the DBpedia-person data generator (calibrated
  to Figure 4), the synthetic selective query workload, and a TPC-H
  dbgen plus all 22 queries.
* :mod:`repro.baselines` — the comparators: hash and round-robin online
  partitioners, the oracle and offline-clustering partitionings, and the
  vertical hidden-schema fragments [18].
* :mod:`repro.reporting` — table, chart and log-histogram (Figure 8)
  renderers.

Quickstart::

    from repro import CinderellaTable, CinderellaConfig, AttributeQuery

    table = CinderellaTable(CinderellaConfig(max_partition_size=500, weight=0.3))
    table.insert({"name": "Canon S120", "resolution": 12.1, "aperture": 2.0})
    table.insert({"name": "WD4000FYYZ", "storage": "4TB", "rotation": 7200})
    result = table.execute(AttributeQuery(("aperture", "resolution")))
    print(result.rows, result.stats.partitions_pruned)
"""

from repro.catalog import AttributeDictionary, PartitionCatalog, SynopsisIndex
from repro.core import (
    AttributeCountSizeModel,
    ByteSizeModel,
    CinderellaConfig,
    CinderellaPartitioner,
    ModificationOutcome,
    Synopsis,
    UniformSizeModel,
    WorkloadBasedPartitioner,
    catalog_efficiency,
    partitioning_efficiency,
    universal_table_efficiency,
)
from repro.cost import CostModel
from repro.query import AttributeQuery, ExecutionResult, UnionAllPlan
from repro.storage import BufferPool, Entity, IOStats
from repro.table import CinderellaTable, TableView, unpartitioned_table

__version__ = "1.0.0"

__all__ = [
    "AttributeCountSizeModel",
    "AttributeDictionary",
    "AttributeQuery",
    "BufferPool",
    "ByteSizeModel",
    "CinderellaConfig",
    "CinderellaPartitioner",
    "CinderellaTable",
    "CostModel",
    "Entity",
    "ExecutionResult",
    "IOStats",
    "ModificationOutcome",
    "PartitionCatalog",
    "Synopsis",
    "SynopsisIndex",
    "TableView",
    "UniformSizeModel",
    "UnionAllPlan",
    "WorkloadBasedPartitioner",
    "catalog_efficiency",
    "partitioning_efficiency",
    "universal_table_efficiency",
    "unpartitioned_table",
]
