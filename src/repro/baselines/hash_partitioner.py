"""Hash partitioning — the web-scale default the paper contrasts with.

"In web-scale databases, where load balancing over a large number of nodes
is the main concern, hash partitioning is the common choice" (Section VI,
refs [12]-[14]).  Hash partitioning balances load perfectly but is blind
to schema properties, so partition synopses converge towards the full
attribute universe and pruning stops working — the negative baseline for
the efficiency benchmark.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.placement import PlacementPartitioner
from repro.core.sizes import SizeModel


def _mix(eid: int) -> int:
    """Deterministic 64-bit integer hash (builtin ``hash`` is salted for
    strings but stable for ints; mix anyway so sequential ids spread)."""
    value = (eid ^ (eid >> 33)) * 0xFF51AFD7ED558CCD & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 33)) * 0xC4CEB9FE1A85EC53 & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 33)


class HashPartitioner(PlacementPartitioner):
    """Online partitioner assigning entities by entity-id hash.

    The partition count is fixed up front (as in Dynamo-style systems);
    partitions are created lazily on first use.  It meets the same
    :class:`~repro.core.partitioner.Partitioner` contract as Cinderella.
    """

    def __init__(
        self,
        num_partitions: int,
        size_model: Optional[SizeModel] = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        super().__init__(size_model)
        self.num_partitions = num_partitions
        self._slot_to_pid: dict[int, int] = {}

    def _home(self, eid: int, size: float) -> Optional[int]:
        pid = self._slot_to_pid.get(_mix(eid) % self.num_partitions)
        return pid if pid in self.catalog else None

    def _opened(self, eid: int, pid: int) -> None:
        self._slot_to_pid[_mix(eid) % self.num_partitions] = pid
