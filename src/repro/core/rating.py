"""The Cinderella partition rating (Section IV of the paper).

The rating compares an entity synopsis with a partition synopsis to decide
how well the entity would fit into the partition.  It combines

* **positive evidence** — homogeneity, the amount of regularly structured
  data the partition will contain after the insert::

      h⁺ = (SIZE(p) + SIZE(e)) · |e ∧ p|

* **negative evidence** — heterogeneity introduced by the insert, split in
  two directions::

      hₑ⁻ = SIZE(e) · |¬e ∧ p|      (partition attributes the entity lacks)
      hₚ⁻ = SIZE(p) · |e ∧ ¬p|      (entity attributes the partition lacks)

into the *local* rating ``r' = w·h⁺ − (1−w)(hₑ⁻ + hₚ⁻)``, which is then
normalised into the *global* rating comparable across partitions::

      r = r' / ((SIZE(p) + SIZE(e)) · |e ∨ p|)

Every partition choice (an insert's catalog scan, a split's restricted
re-insert, a merge's host) runs :func:`best_rated`, the one fast loop: one
population count per candidate plus cached cardinalities.  :func:`rate` and
the score functions are the documented, directly-testable reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.catalog.partition import Partition


def homogeneity_score(size_p: float, size_e: float, shared_attrs: int) -> float:
    """``h⁺ = (SIZE(p) + SIZE(e)) · |e ∧ p|`` — positive evidence."""
    return (size_p + size_e) * shared_attrs


def entity_heterogeneity_score(size_e: float, missing_in_entity: int) -> float:
    """``hₑ⁻ = SIZE(e) · |¬e ∧ p|`` — heterogeneity on the entity's side."""
    return size_e * missing_in_entity


def partition_heterogeneity_score(size_p: float, missing_in_partition: int) -> float:
    """``hₚ⁻ = SIZE(p) · |e ∧ ¬p|`` — heterogeneity on the partition's side."""
    return size_p * missing_in_partition


def local_rating(
    weight: float,
    homogeneity: float,
    entity_heterogeneity: float,
    partition_heterogeneity: float,
) -> float:
    """``r' = w·h⁺ − (1−w)(hₑ⁻ + hₚ⁻)`` — not comparable across partitions."""
    return weight * homogeneity - (1.0 - weight) * (
        entity_heterogeneity + partition_heterogeneity
    )


def global_rating(
    local: float, size_p: float, size_e: float, union_attrs: int
) -> float:
    """Normalise a local rating: ``r = r' / ((SIZE(p)+SIZE(e)) · |e ∨ p|)``.

    The denominator is zero only when both synopses are empty (an entity
    without attributes rated against a partition of attribute-less
    entities).  Such a pair is a perfect — trivially homogeneous — match,
    so the rating is defined as ``0.0``: non-negative, hence accepted,
    while any partition with attributes rates negative against an empty
    entity and vice versa.
    """
    denominator = (size_p + size_e) * union_attrs
    if denominator == 0:
        return 0.0
    return local / denominator


@dataclass(frozen=True)
class RatingBreakdown:
    """All intermediate scores of one entity/partition rating.

    Returned by :func:`rate` for inspection, debugging, and the worked
    examples in the documentation; the partitioner itself uses
    :func:`best_rated`.
    """

    homogeneity: float
    entity_heterogeneity: float
    partition_heterogeneity: float
    local: float
    global_: float


def rate(
    entity_mask: int,
    partition_mask: int,
    size_e: float,
    size_p: float,
    weight: float,
) -> RatingBreakdown:
    """Rate an entity against a partition, returning every intermediate score."""
    shared = (entity_mask & partition_mask).bit_count()
    missing_in_entity = (partition_mask & ~entity_mask).bit_count()
    missing_in_partition = (entity_mask & ~partition_mask).bit_count()
    union_attrs = (entity_mask | partition_mask).bit_count()

    h_pos = homogeneity_score(size_p, size_e, shared)
    h_ent = entity_heterogeneity_score(size_e, missing_in_entity)
    h_par = partition_heterogeneity_score(size_p, missing_in_partition)
    local = local_rating(weight, h_pos, h_ent, h_par)
    return RatingBreakdown(
        homogeneity=h_pos,
        entity_heterogeneity=h_ent,
        partition_heterogeneity=h_par,
        local=local,
        global_=global_rating(local, size_p, size_e, union_attrs),
    )


def best_rated(
    entity_mask: int,
    size_e: float,
    partitions: Iterable[Partition],
    weight: float,
    normalize: bool = True,
    first_fit: bool = False,
) -> tuple[Optional[Partition], float, int]:
    """Rate an entity against *partitions*; return ``(best, rating, rated)``:
    the first partition with the highest rating (``None``, ``-inf`` when
    there is none) and the number rated.  Each rating equals
    ``rate(...).global_``, derived from the overlap and the two counts:

    * ``|¬e ∧ p| = |p| − |e ∧ p|``
    * ``|e ∧ ¬p| = |e| − |e ∧ p|``
    * ``|e ∨ p| = |e| + |p| − |e ∧ p|``

    Ablations: ``normalize=False`` compares the raw local ratings ``r'``
    (Section IV's normalisation argument); ``first_fit`` stops at the
    first partition that beats every earlier one and rates non-negatively.
    """
    entity_attr_count = entity_mask.bit_count()
    negative_weight = 1.0 - weight
    best = None
    best_rating = -math.inf
    rated = 0
    for rated, partition in enumerate(partitions, 1):
        size_p = partition.total_size
        partition_attr_count = partition.attr_count
        shared = (entity_mask & partition.mask).bit_count()
        combined_size = size_p + size_e
        rating = weight * combined_size * shared - negative_weight * (
            size_e * (partition_attr_count - shared)
            + size_p * (entity_attr_count - shared)
        )
        if normalize:
            denominator = combined_size * (
                entity_attr_count + partition_attr_count - shared
            )
            rating = rating / denominator if denominator else 0.0
        if rating > best_rating:
            best_rating = rating
            best = partition
            if first_fit and rating >= 0.0:
                break
    return best, best_rating, rated
