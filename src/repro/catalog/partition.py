"""Partition metadata: members, exact synopsis, size, and split starters.

A :class:`Partition` is the *catalog entry* for one horizontal partition of
the universal table: it records which entities live in the partition, the
partition synopsis (the union of its members' attribute sets, Section II),
the accumulated ``SIZE(p)``, and the split-starter pair (Section III).

The paper leaves open how the partition synopsis evolves when entities are
removed; a stale superset synopsis stays *sound* for pruning but loses
precision.  We keep the synopsis exact without per-attribute counts: an
arriving member ORs its mask in; a departing or updated member's bits are
cleared when a scan of the members, stopped once every departed bit has
been seen again, finds no one else holding them (see DESIGN.md §6).

Physical storage of the entity payloads is handled separately by the table
layer (:mod:`repro.table.partitioned`); the catalog works purely on synopsis
masks and sizes, exactly like the paper's system-catalog-driven prototype.
"""

from __future__ import annotations

from typing import Iterator

from repro.catalog.starters import SplitStarters


def iter_attribute_ids(mask: int) -> Iterator[int]:
    """Yield the attribute ids (bit positions) set in *mask*."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Partition:
    """Catalog entry of one partition: synopsis, members, size, starters."""

    __slots__ = (
        "pid",
        "mask",
        "attr_count",
        "total_size",
        "starters",
        "_members",
    )

    def __init__(self, pid: int) -> None:
        self.pid = pid
        #: exact partition synopsis: union of member attribute masks
        self.mask: int = 0
        #: cached ``|p|`` (bit count of ``mask``), used by the rating scan
        self.attr_count: int = 0
        #: accumulated ``SIZE(p)``
        self.total_size: float = 0.0
        self.starters = SplitStarters()
        # entity id -> (mask, size)
        self._members: dict[int, tuple[int, float]] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, eid: int) -> bool:
        return eid in self._members

    def entity_ids(self) -> tuple[int, ...]:
        return tuple(self._members)

    def members(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(entity_id, mask, size)`` for every member."""
        for eid, (mask, size) in self._members.items():
            yield eid, mask, size

    def member(self, eid: int) -> tuple[int, float]:
        """Return ``(mask, size)`` of a member entity."""
        return self._members[eid]

    def mask_of(self, eid: int) -> int:
        """Return a member entity's synopsis mask."""
        return self._members[eid][0]

    def is_empty(self) -> bool:
        return not self._members

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, eid: int, mask: int, size: float, observe_starters: bool = True) -> int:
        """Add an entity; return the set of synopsis bits that became new.

        The returned mask (possibly 0) tells the catalog which inverted
        index postings to extend.  ``observe_starters=False`` is used by the
        partitioner when Algorithm 1 already ran the starter-maintenance
        step before the capacity check.
        """
        if eid in self._members:
            raise ValueError(f"entity {eid} already in partition {self.pid}")
        self._members[eid] = (mask, size)
        self.total_size += size
        added_bits = mask & ~self.mask
        if added_bits:
            self.mask |= added_bits
            self.attr_count = self.mask.bit_count()
        if observe_starters:
            self.starters.observe(eid, mask)
        return added_bits

    def remove(self, eid: int, repair_starters: bool = True) -> tuple[int, float, int]:
        """Remove an entity; return ``(mask, size, removed_synopsis_bits)``.

        ``removed_synopsis_bits`` are attributes whose last instance left
        the partition (postings to shrink).  ``repair_starters=False`` skips
        the starter replay — used when the partition is about to be
        dropped (a split's starters, a merge's members) or a rollback
        restores its starters itself.
        """
        mask, size = self._members.pop(eid)
        self.total_size -= size
        removed_bits = self._unheld(mask)
        if removed_bits:
            self.mask &= ~removed_bits
            self.attr_count = self.mask.bit_count()
        if repair_starters and self.starters.is_starter(eid):
            self.starters.replay((m_eid, m_mask) for m_eid, m_mask, _ in self.members())
        return mask, size, removed_bits

    def update_member(self, eid: int, mask: int, size: float) -> tuple[int, int]:
        """Change a member's synopsis/size in place (the paper's update case).

        Returns ``(added_synopsis_bits, removed_synopsis_bits)`` for index
        maintenance.  The split-starter pair is refreshed with the new mask
        and then re-offered the updated entity, so the pair can only get
        more differential.
        """
        old_mask, old_size = self._members[eid]
        self._members[eid] = (mask, size)
        self.total_size += size - old_size
        added_bits = mask & ~self.mask
        removed_bits = self._unheld(old_mask & ~mask)
        if added_bits or removed_bits:
            self.mask = (self.mask | added_bits) & ~removed_bits
            self.attr_count = self.mask.bit_count()
        self.starters.refresh_mask(eid, mask)
        self.starters.observe(eid, mask)
        return added_bits, removed_bits

    def detach(self) -> list[tuple[int, int, float]]:
        """Empty the partition in one pass, starters included; return its
        former members as ``(entity_id, mask, size)`` in order."""
        detached = [(eid, mask, size) for eid, (mask, size) in self._members.items()]
        self._members = {}
        self.mask = 0
        self.attr_count = 0
        self.total_size = 0.0
        self.starters.clear()
        return detached

    def _unheld(self, bits: int) -> int:
        """The subset of *bits* no member holds; the scan stops as soon
        as every bit has been seen."""
        for member_mask, _size in self._members.values():
            bits &= ~member_mask
            if not bits:
                break
        return bits

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def sparseness(self) -> float:
        """Fraction of unset cells in the partition's entity × attribute grid.

        ``0.0`` means perfectly dense (every member instantiates every
        partition attribute — the w = 0 regime of Figure 7(d)); values close
        to 1 mean the partition is almost as sparse as a universal table.
        Empty partitions and attribute-less partitions are defined as dense.
        """
        if not self._members or self.attr_count == 0:
            return 0.0
        instantiated = sum(mask.bit_count() for _, (mask, _) in self._members.items())
        cells = len(self._members) * self.attr_count
        return 1.0 - instantiated / cells

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Partition(pid={self.pid}, entities={len(self._members)}, "
            f"attrs={self.attr_count}, size={self.total_size:g})"
        )
