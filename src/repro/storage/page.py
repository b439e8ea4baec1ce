"""Slotted pages — the unit of I/O.

A page holds variable-length sparse records behind a slot directory, the
classic disk-page layout: record ids stay stable (slot numbers survive
compaction) while deletions leave reusable tombstones.  The page size is
the granularity in which the I/O statistics count reads, mirroring the
paper's remark that in disk-based systems "pages may represent a partition
granularity" — here pages are below partitions: each partition is a heap
file of pages.
"""

from __future__ import annotations

from typing import Iterator, Optional

DEFAULT_PAGE_SIZE = 8192
#: per-record slot bookkeeping we charge against the page budget
_SLOT_OVERHEAD = 8


class PageFullError(RuntimeError):
    """Raised when a record cannot fit into the page."""


def check_record_size(record: bytes, page_size: int) -> None:
    """Raise :class:`PageFullError` unless an empty page holds *record*."""
    if len(record) + _SLOT_OVERHEAD > page_size:
        raise PageFullError(
            f"record of {len(record)} bytes exceeds page size {page_size}"
        )


class Page:
    """One fixed-size slotted page of serialized records."""

    __slots__ = ("page_size", "_slots", "_used")

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= _SLOT_OVERHEAD:
            raise ValueError(f"page_size too small: {page_size}")
        self.page_size = page_size
        # slot -> record bytes, None = tombstone
        self._slots: list[Optional[bytes]] = []
        self._used = 0

    def __len__(self) -> int:
        """Number of live records."""
        return len(self._slots) - self._slots.count(None)

    @property
    def used_bytes(self) -> int:
        """Bytes consumed by live records plus slot overhead."""
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.page_size - self._used

    def fits(self, record: bytes) -> bool:
        return len(record) + _SLOT_OVERHEAD <= self.free_bytes

    def insert(self, record: bytes) -> int:
        """Store a record, reusing a tombstone slot if any; return the slot."""
        need = len(record) + _SLOT_OVERHEAD
        if need > self.free_bytes:
            raise PageFullError(
                f"record of {len(record)} bytes does not fit "
                f"({self.free_bytes} bytes free)"
            )
        self._used += need
        for slot, existing in enumerate(self._slots):
            if existing is None:
                self._slots[slot] = record
                return slot
        self._slots.append(record)
        return len(self._slots) - 1

    def read(self, slot: int) -> bytes:
        record = self._slots[slot] if 0 <= slot < len(self._slots) else None
        if record is None:
            raise KeyError(f"no live record in slot {slot}")
        return record

    def delete(self, slot: int) -> bytes:
        """Tombstone a slot; return the record that was there."""
        record = self.read(slot)
        self._slots[slot] = None
        self._used -= len(record) + _SLOT_OVERHEAD
        return record

    def replace(self, slot: int, record: bytes) -> None:
        """Overwrite a live record in place (used by in-place updates)."""
        old = self.read(slot)
        new_used = self._used - len(old) + len(record)
        if new_used > self.page_size:
            raise PageFullError(
                f"replacement record of {len(record)} bytes does not fit"
            )
        self._slots[slot] = record
        self._used = new_used

    def is_tail_slot(self, slot: int) -> bool:
        """Whether *slot* is the page's highest-numbered slot.

        A freshly inserted record in the tail slot of the tail page is
        the only placement that keeps physical scan order append-only —
        the heap's structural clock relies on this distinction, since
        :meth:`insert` may also fill an earlier tombstone.
        """
        return slot == len(self._slots) - 1

    def records(self, start: int = 0) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, record)`` for every live record in slot
        *start* or later."""
        slots = self._slots
        for slot in range(start, len(slots)):
            record = slots[slot]
            if record is not None:
                yield slot, record

    def is_empty(self) -> bool:
        return all(record is None for record in self._slots)
