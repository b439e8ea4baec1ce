"""The shared modification routines of the online baselines.

Hash and round-robin partitioning differ only in where a new entity
goes.  Both leave an entity where it is on update and drop a partition
once its last entity is deleted, so those routines live here once and
each baseline supplies its placement rule.
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.catalog import PartitionCatalog
from repro.core.outcomes import ModificationOutcome, Move
from repro.core.sizes import SizeModel, UniformSizeModel


class PlacementPartitioner:
    """An online partitioner defined by its placement rule alone.

    Subclasses implement :meth:`_home` (an existing partition that takes
    the new entity, or ``None`` to open one) and :meth:`_opened` (note
    the partition just opened for it).  A remembered partition may have
    been dropped since; :meth:`_home` checks it is still in the catalog.
    """

    def __init__(self, size_model: Optional[SizeModel] = None) -> None:
        self.size_model = size_model if size_model is not None else UniformSizeModel()
        self.catalog = PartitionCatalog()

    def _home(self, eid: int, size: float) -> Optional[int]:
        raise NotImplementedError

    def _opened(self, eid: int, pid: int) -> None:
        raise NotImplementedError

    def insert(self, eid: int, mask: int, payload_bytes: int = 0) -> ModificationOutcome:
        size = self.size_model.entity_size(mask, payload_bytes)
        outcome = ModificationOutcome(entity_id=eid)
        pid = self._home(eid, size)
        if pid is None:
            pid = self.catalog.create_partition().pid
            self._opened(eid, pid)
            outcome.created_partitions.append(pid)
        self.catalog.add_entity(pid, eid, mask, size)
        outcome.partition_id = pid
        outcome.moves.append(Move(eid, None, pid))
        return outcome

    def delete(self, eid: int) -> ModificationOutcome:
        pid, _mask, _size = self.catalog.remove_entity(eid)
        outcome = ModificationOutcome(entity_id=eid, partition_id=None)
        if self.catalog.get(pid).is_empty():
            self.catalog.drop_partition(pid)
            outcome.dropped_partitions.append(pid)
        return outcome

    def update(self, eid: int, mask: int, payload_bytes: int = 0) -> ModificationOutcome:
        """Placement never depends on the attribute set: always in place."""
        size = self.size_model.entity_size(mask, payload_bytes)
        pid = self.catalog.update_entity(eid, mask, size)
        return ModificationOutcome(entity_id=eid, partition_id=pid, in_place=True)
