"""The offline comparators — functions of the whole data set.

Both see every entity at once, an upper hand Cinderella does not have;
Cinderella's selling point is matching their quality *online*.  Each
groups the entities and :func:`pack` chunks every group into partitions
of at most ``B``, so the result is a :class:`PartitionCatalog` directly
comparable to Cinderella's fixed-capacity partitionings.

* :func:`oracle_partitioning` — the efficiency upper bound.  Groups by
  the *exact* attribute-set signature: every partition is perfectly
  homogeneous (sparseness 0, like Cinderella at w = 0) while — unlike
  w = 0 — identical signatures are never scattered.  No entity-based
  partitioner can prune better.  It needs a full pass plus unbounded
  working memory, which is exactly why the paper wants an online
  algorithm instead.
* :func:`clustering_partitioning` — a horizontal adaptation of Chu et
  al.'s hidden-schema inference [18] (Section VI): one-pass **leader
  clustering** on entity synopses, where an entity joins the first
  cluster whose leader synopsis is Jaccard-similar above a threshold (no
  ``k`` needed — mirroring how practitioners would adapt the idea).  The
  paper notes [18] is not directly applicable (it partitions vertically,
  see :mod:`repro.baselines.vertical`), but it is the closest published
  offline alternative.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.catalog.catalog import PartitionCatalog
from repro.core.sizes import SizeModel, UniformSizeModel


def jaccard(mask_a: int, mask_b: int) -> float:
    """Jaccard coefficient of two attribute-set masks (1.0 for two empties)."""
    union = (mask_a | mask_b).bit_count()
    if union == 0:
        return 1.0
    return (mask_a & mask_b).bit_count() / union


def leader_clusters(
    entities: Sequence[tuple[int, int]], threshold: float
) -> list[list[tuple[int, int]]]:
    """One-pass leader clustering of ``(eid, mask)`` pairs.

    An entity joins the first cluster whose *leader* (founding entity) has
    Jaccard similarity ≥ *threshold*; otherwise it founds a new cluster.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    leaders: list[int] = []
    clusters: list[list[tuple[int, int]]] = []
    for eid, mask in entities:
        for index, leader_mask in enumerate(leaders):
            if jaccard(mask, leader_mask) >= threshold:
                clusters[index].append((eid, mask))
                break
        else:
            leaders.append(mask)
            clusters.append([(eid, mask)])
    return clusters


def pack(
    groups: Iterable[Sequence[tuple[int, int]]],
    max_partition_size: float,
    size_model: Optional[SizeModel] = None,
) -> PartitionCatalog:
    """Chunk each group of ``(eid, mask)`` pairs, in order, into
    partitions of at most *max_partition_size*; a group never shares a
    partition with another.  An entity larger than the limit gets a
    partition of its own."""
    if max_partition_size <= 0:
        raise ValueError("max_partition_size must be positive")
    size_model = size_model if size_model is not None else UniformSizeModel()
    catalog = PartitionCatalog()
    for group in groups:
        partition = None
        for eid, mask in group:
            size = size_model.entity_size(mask)
            if partition is None or partition.total_size + size > max_partition_size:
                partition = catalog.create_partition()
            catalog.add_entity(partition.pid, eid, mask, size)
    return catalog


def oracle_partitioning(
    entities: Sequence[tuple[int, int]],
    max_partition_size: float,
    size_model: Optional[SizeModel] = None,
) -> PartitionCatalog:
    """Exact-signature groups, in signature order, packed into partitions."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for eid, mask in entities:
        groups.setdefault(mask, []).append((eid, mask))
    return pack(
        (groups[mask] for mask in sorted(groups)), max_partition_size, size_model
    )


def clustering_partitioning(
    entities: Sequence[tuple[int, int]],
    max_partition_size: float,
    threshold: float = 0.4,
    size_model: Optional[SizeModel] = None,
) -> PartitionCatalog:
    """Leader clusters at Jaccard *threshold*, packed into partitions."""
    return pack(
        leader_clusters(entities, threshold), max_partition_size, size_model
    )
