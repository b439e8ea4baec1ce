"""Slotted pages — the unit of I/O.

A page holds variable-length sparse records behind a slot directory, the
classic disk-page layout: record ids stay stable (slot numbers survive
compaction) while deletions leave reusable tombstones.  The page size is
the granularity in which the I/O statistics count reads, mirroring the
paper's remark that in disk-based systems "pages may represent a partition
granularity" — here pages are below partitions: each partition is a heap
file of pages.

A slot holds a :class:`~repro.storage.record.StoredRecord` — the bytes,
the entity synopsis they were stored with, and what readers decoded from
them — behind a bytes-in, bytes-out API.
:meth:`Page.view` is the page's live records at one moment as an
immutable :class:`PageView`, cached until the page next changes, so
every reader that sees the page unchanged shares one view.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.storage.record import StoredRecord

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


class PageView:
    """A page's live records at one moment, in slot order.

    Immutable: a change to the page makes the next :meth:`Page.view` a
    new object, and this one keeps what it saw.  ``chunks`` is a memo
    for readers — the snapshot keeps the page's rendered rows there per
    query shape and scope.
    """

    __slots__ = ("records", "chunks")

    def __init__(self, records: tuple[StoredRecord, ...]) -> None:
        self.records = records
        self.chunks: dict[Any, tuple[str, int]] = {}


class Page:
    """One fixed-size slotted page of serialized records."""

    __slots__ = ("page_size", "_slots", "_live", "_used", "_view")

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= _SLOT_OVERHEAD:
            raise ValueError(f"page_size too small: {page_size}")
        self.page_size = page_size
        # slot -> stored record, None = tombstone
        self._slots: list[Optional[StoredRecord]] = []
        self._live = 0
        self._used = 0
        #: the live records as last viewed; dropped by every change
        self._view: Optional[PageView] = None

    def __len__(self) -> int:
        """Number of live records."""
        return self._live

    @property
    def used_bytes(self) -> int:
        """Bytes consumed by live records plus slot overhead."""
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.page_size - self._used

    def fits(self, record: bytes) -> bool:
        return len(record) + _SLOT_OVERHEAD <= self.free_bytes

    def insert(self, record: bytes, mask: int) -> int:
        """Store a record with its entity synopsis *mask*, reusing a
        tombstone slot if any; return the slot."""
        return self.place(StoredRecord(record, mask))

    def place(self, stored: StoredRecord) -> int:
        """:meth:`insert` for a record already stored elsewhere: the
        object itself, with what readers decoded from it."""
        need = len(stored.data) + _SLOT_OVERHEAD
        if need > self.free_bytes:
            raise PageFullError(
                f"record of {len(stored.data)} bytes does not fit "
                f"({self.free_bytes} bytes free)"
            )
        self._used += need
        self._view = None
        slots = self._slots
        if self._live < len(slots):  # a tombstone to reuse
            slot = slots.index(None)
            slots[slot] = stored
        else:
            slot = len(slots)
            slots.append(stored)
        self._live += 1
        return slot

    def stored(self, slot: int) -> StoredRecord:
        """The stored record in *slot*."""
        stored = self._slots[slot] if 0 <= slot < len(self._slots) else None
        if stored is None:
            raise KeyError(f"no live record in slot {slot}")
        return stored

    def read(self, slot: int) -> bytes:
        return self.stored(slot).data

    def delete(self, slot: int) -> bytes:
        """Tombstone a slot; return the record that was there."""
        record = self.read(slot)
        self._slots[slot] = None
        self._live -= 1
        self._used -= len(record) + _SLOT_OVERHEAD
        self._view = None
        return record

    def replace(self, slot: int, record: bytes, mask: int) -> None:
        """Overwrite a live record in place (used by in-place updates)."""
        old = self.read(slot)
        new_used = self._used - len(old) + len(record)
        if new_used > self.page_size:
            raise PageFullError(
                f"replacement record of {len(record)} bytes does not fit"
            )
        self._slots[slot] = StoredRecord(record, mask)
        self._used = new_used
        self._view = None

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, record)`` for every live record."""
        for slot, stored in enumerate(self._slots):
            if stored is not None:
                yield slot, stored.data

    def view(self) -> PageView:
        """The live records as they are now, shared until the next change."""
        view = self._view
        if view is None:
            view = self._view = PageView(tuple(filter(None, self._slots)))
        return view

    def is_empty(self) -> bool:
        return not self._live
