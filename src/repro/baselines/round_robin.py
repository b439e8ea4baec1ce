"""Round-robin (arrival-order) partitioning.

The simplest size-bounded horizontal partitioning: fill one partition to
the size limit, then open the next.  Like hash partitioning it ignores
schema properties; unlike hash partitioning it preserves insertion
locality, so it benefits slightly when arrival order correlates with
entity structure.  Serves as the "no intelligence, same B" control for
Cinderella in the efficiency benchmark.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.placement import PlacementPartitioner
from repro.core.sizes import SizeModel


class RoundRobinPartitioner(PlacementPartitioner):
    """Fill partitions in arrival order up to ``max_partition_size``."""

    def __init__(
        self,
        max_partition_size: float,
        size_model: Optional[SizeModel] = None,
    ) -> None:
        if max_partition_size <= 0:
            raise ValueError("max_partition_size must be positive")
        super().__init__(size_model)
        self.max_partition_size = max_partition_size
        self._open_pid: Optional[int] = None

    def _home(self, eid: int, size: float) -> Optional[int]:
        pid = self._open_pid
        if pid in self.catalog and (
            self.catalog.get(pid).total_size + size <= self.max_partition_size
        ):
            return pid
        return None

    def _opened(self, eid: int, pid: int) -> None:
        self._open_pid = pid
