"""The partitionings Cinderella is compared against (Section VI).

Online baselines meet the :class:`~repro.core.partitioner.Partitioner`
contract; offline comparators are functions of the whole data set that
return a catalog (horizontal) or fragments (vertical).  All are scored by
:mod:`repro.core.efficiency`.
"""

from repro.baselines.hash_partitioner import HashPartitioner
from repro.baselines.offline import (
    clustering_partitioning,
    jaccard,
    leader_clusters,
    oracle_partitioning,
    pack,
)
from repro.baselines.round_robin import RoundRobinPartitioner
from repro.baselines.vertical import (
    VerticalFragment,
    attribute_jaccard,
    fragment_cells,
    hidden_schema_fragments,
    masks_to_matrix,
)

__all__ = [
    "HashPartitioner",
    "RoundRobinPartitioner",
    "VerticalFragment",
    "attribute_jaccard",
    "clustering_partitioning",
    "fragment_cells",
    "hidden_schema_fragments",
    "jaccard",
    "leader_clusters",
    "masks_to_matrix",
    "oracle_partitioning",
    "pack",
]
