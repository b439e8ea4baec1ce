"""Core of the reproduction: the Cinderella algorithm, the online
partitioner contract, and the quality measures every partitioning is
judged by."""

from repro.core.config import CinderellaConfig
from repro.core.efficiency import (
    catalog_cells,
    catalog_efficiency,
    cell_efficiency,
    partitioning_efficiency,
    summarize_catalog,
    universal_table_efficiency,
)
from repro.core.outcomes import ModificationOutcome, Move
from repro.core.partitioner import CinderellaPartitioner, Partitioner
from repro.core.rating import RatingBreakdown, best_rated, rate
from repro.core.sizes import (
    AttributeCountSizeModel,
    ByteSizeModel,
    SizeModel,
    UniformSizeModel,
)
from repro.catalog.starters import SplitStarters
from repro.core.synopsis import Synopsis
from repro.core.workload_mode import WorkloadBasedPartitioner, WorkloadSynopsisEncoder

__all__ = [
    "AttributeCountSizeModel",
    "ByteSizeModel",
    "CinderellaConfig",
    "CinderellaPartitioner",
    "ModificationOutcome",
    "Move",
    "Partitioner",
    "RatingBreakdown",
    "SizeModel",
    "SplitStarters",
    "Synopsis",
    "UniformSizeModel",
    "WorkloadBasedPartitioner",
    "WorkloadSynopsisEncoder",
    "best_rated",
    "catalog_cells",
    "catalog_efficiency",
    "cell_efficiency",
    "partitioning_efficiency",
    "rate",
    "summarize_catalog",
    "universal_table_efficiency",
]
