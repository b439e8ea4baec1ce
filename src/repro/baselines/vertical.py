"""Vertical hidden-schema partitioning — the comparator of Section VI.

Chu, Beckmann, and Naughton's wide-table work [18] infers "hidden
schemas" by clustering *attributes* on their co-occurrence: the Jaccard
coefficient of every attribute pair forms an adjacency structure, k-NN
clustering groups the attributes, and each group becomes a narrow
vertical fragment of the universal table.  The paper positions it as the
closest related technique while noting it is "not directly applicable":
it partitions vertically, offline, and needs a good ``k`` up front.

This module implements the technique faithfully enough to *measure* that
argument instead of only citing it:

* :func:`attribute_jaccard` computes the pairwise co-occurrence matrix;
* :func:`hidden_schema_fragments` builds the k-nearest-neighbour graph
  over attributes and takes connected components as vertical fragments;
* :func:`fragment_cells` gives each fragment's instantiated-cell volume,
  so :func:`repro.core.efficiency.cell_efficiency` scores the vertical
  layout and Cinderella's horizontal one on the *same* workload — the
  quantitative version of the paper's Section VI claim.

numpy is used for the co-occurrence counting (the only dense-matrix step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def masks_to_matrix(entity_masks: Sequence[int], n_attributes: int) -> np.ndarray:
    """Entity synopsis masks as a boolean (entities × attributes) matrix."""
    matrix = np.zeros((len(entity_masks), n_attributes), dtype=bool)
    for row, mask in enumerate(entity_masks):
        remaining = mask
        while remaining:
            low = remaining & -remaining
            matrix[row, low.bit_length() - 1] = True
            remaining ^= low
    return matrix


def attribute_jaccard(matrix: np.ndarray) -> np.ndarray:
    """Pairwise Jaccard coefficients of attribute co-occurrence.

    ``J[a, b] = |entities with a and b| / |entities with a or b|``;
    attributes with no instances get 0 against everything (and 1 on the
    diagonal by convention).
    """
    counted = matrix.astype(np.int64)
    counts = counted.sum(axis=0).astype(np.float64)
    intersection = (counted.T @ counted).astype(np.float64)
    union = counts[:, None] + counts[None, :] - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        jaccard = np.where(union > 0, intersection / union, 0.0)
    np.fill_diagonal(jaccard, 1.0)
    return jaccard


@dataclass(frozen=True)
class VerticalFragment:
    """One vertical fragment: a set of attribute ids."""

    attribute_ids: frozenset[int]

    def mask(self) -> int:
        value = 0
        for attr_id in self.attribute_ids:
            value |= 1 << attr_id
        return value


def hidden_schema_fragments(
    entity_masks: Sequence[int],
    n_attributes: int,
    k_neighbors: int = 3,
    min_jaccard: float = 0.1,
) -> list[VerticalFragment]:
    """Cluster the attributes into vertical fragments.

    Args:
        entity_masks: the data set's entity synopses.
        n_attributes: size of the attribute universe.
        k_neighbors: each attribute links to its ``k`` most co-occurring
            peers (the technique's ``k`` — the parameter the paper notes
            requires "additional knowledge about the data" to choose well).
        min_jaccard: links below this coefficient are ignored, so
            unrelated attributes do not chain into one fragment.

    Returns:
        The fragments (connected components of the thresholded k-NN
        graph), ordered by their smallest attribute id.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    if not 0.0 <= min_jaccard <= 1.0:
        raise ValueError("min_jaccard must lie in [0, 1]")
    jaccard = attribute_jaccard(masks_to_matrix(entity_masks, n_attributes))

    # undirected k-NN graph over attributes, thresholded
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n_attributes))
    for attr_id in range(n_attributes):
        scores = jaccard[attr_id].copy()
        scores[attr_id] = -1.0  # no self edges
        for neighbour in np.argsort(-scores)[:k_neighbors]:
            if scores[neighbour] >= min_jaccard:
                graph.add_edge(attr_id, int(neighbour))
    fragments = [
        VerticalFragment(frozenset(component))
        for component in nx.connected_components(graph)
    ]
    fragments.sort(key=lambda fragment: min(fragment.attribute_ids))
    return fragments


def fragment_cells(
    fragments: Sequence[VerticalFragment], entity_masks: Sequence[int]
) -> list[tuple[int, float]]:
    """``(attribute mask, instantiated cells)`` per fragment, for
    :func:`repro.core.efficiency.cell_efficiency`.

    Sparse storage: a fragment holds, per entity, only the cells of its
    attributes the entity instantiates, and a query touching any of its
    attributes reads it in full.
    """
    units = []
    for fragment in fragments:
        fragment_mask = fragment.mask()
        units.append(
            (
                fragment_mask,
                float(sum((mask & fragment_mask).bit_count() for mask in entity_masks)),
            )
        )
    return units
