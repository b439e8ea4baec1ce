"""Workload-based Cinderella (Section III, workload-based setup).

Cinderella can partition either on entity structure (the default: an entity
synopsis lists the attributes the entity instantiates) or on the workload:
"for a workload-based partitioning, an entity synopsis lists the queries an
entity is relevant to".  Entities relevant to the same queries then cluster
into the same partitions, tailoring the layout to the given query set.

This module translates attribute-space synopses into *workload space*: bit
``i`` of a workload-space synopsis means "relevant to query ``i``".  The
translated masks feed the unchanged Cinderella algorithm — the rating, the
starters, and the splits are completely agnostic to what the bits mean.
``SIZE(e)`` is the one exception: it prices the stored entity, so it comes
from the attribute synopsis and the payload, never from the query bits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.core.config import CinderellaConfig
from repro.core.outcomes import ModificationOutcome
from repro.core.partitioner import CinderellaPartitioner
from repro.core.sizes import SizeModel


class WorkloadSynopsisEncoder:
    """Map attribute-space entity synopses to workload-space synopses.

    >>> encoder = WorkloadSynopsisEncoder([0b011, 0b100])
    >>> bin(encoder.encode(0b001))   # relevant to query 0 only
    '0b1'
    >>> bin(encoder.encode(0b101))   # relevant to both queries
    '0b11'
    """

    def __init__(self, query_masks: Sequence[int]) -> None:
        if not query_masks:
            raise ValueError("workload-based mode requires at least one query")
        self._query_masks = tuple(query_masks)

    @property
    def query_count(self) -> int:
        return len(self._query_masks)

    @property
    def query_masks(self) -> tuple[int, ...]:
        return self._query_masks

    def encode(self, entity_attr_mask: int) -> int:
        """Workload-space synopsis: bit i set iff ``|e ∧ q_i| > 0``."""
        workload_mask = 0
        for i, query_mask in enumerate(self._query_masks):
            if entity_attr_mask & query_mask:
                workload_mask |= 1 << i
        return workload_mask

    def query_synopsis(self, query_index: int) -> int:
        """The workload-space synopsis of query ``i`` (just bit ``i``)."""
        if not 0 <= query_index < len(self._query_masks):
            raise IndexError(query_index)
        return 1 << query_index


class _PricedSizeModel(SizeModel):
    """Hands the inner partitioner the ``SIZE(e)`` priced in attribute
    space: it only ever sees workload-space masks, whose bits count
    queries, not stored attributes."""

    def __init__(self) -> None:
        self.size = 0.0

    def entity_size(self, mask: int, payload_bytes: int = 0) -> float:
        return self.size


class WorkloadBasedPartitioner:
    """Cinderella driven by workload-space synopses.

    Wraps a :class:`CinderellaPartitioner` and an encoder; callers keep
    speaking attribute masks, the wrapper translates.  Pruning for query
    ``i`` tests bit ``i`` of the partition's workload-space synopsis.
    The configured size model prices each entity from its attribute
    synopsis and payload before the translated mask goes in.
    """

    def __init__(
        self,
        query_masks: Sequence[int],
        config: Optional[CinderellaConfig] = None,
    ) -> None:
        config = config if config is not None else CinderellaConfig()
        self.encoder = WorkloadSynopsisEncoder(query_masks)
        self.size_model = config.size_model
        self._priced = _PricedSizeModel()
        self.partitioner = CinderellaPartitioner(
            replace(config, size_model=self._priced)
        )

    @property
    def catalog(self):
        return self.partitioner.catalog

    def insert(
        self, eid: int, attr_mask: int, payload_bytes: int = 0
    ) -> ModificationOutcome:
        self._priced.size = self.size_model.entity_size(attr_mask, payload_bytes)
        return self.partitioner.insert(eid, self.encoder.encode(attr_mask))

    def delete(self, eid: int) -> ModificationOutcome:
        return self.partitioner.delete(eid)

    def update(
        self, eid: int, attr_mask: int, payload_bytes: int = 0
    ) -> ModificationOutcome:
        self._priced.size = self.size_model.entity_size(attr_mask, payload_bytes)
        return self.partitioner.update(eid, self.encoder.encode(attr_mask))

    def partitions_for_query(self, query_index: int) -> list[int]:
        """Partition ids that survive pruning for workload query ``i``."""
        synopsis = self.encoder.query_synopsis(query_index)
        return [p.pid for p in self.catalog if p.mask & synopsis]
