"""Heap files — the physical representation of a partition.

The paper's prototype "creates a regular table for each partition"; our
equivalent is one :class:`HeapFile` of slotted pages per partition (and a
single big heap file for the unpartitioned universal table baseline).
Records are addressed by :class:`RecordId` (page number, slot); scans go
page-by-page, charging the shared :class:`~repro.storage.iostats.IOStats`
and optionally consulting a :class:`~repro.storage.buffer.BufferPool`.

Records go in as bytes with their entity synopsis and come out as
bytes.  Beside that, :meth:`HeapFile.take` and :meth:`HeapFile.place`
move a stored record to another heap as the object it is stored as (see
:class:`~repro.storage.record.StoredRecord`), charged like a read, a
delete and an insert, and :meth:`HeapFile.page_views` is every page's
immutable view of its live records: a snapshot publish's read, which is
not a query, so it charges nothing.  A query served from a snapshot
current with the heap charges, through :meth:`HeapFile.charge_scan`,
exactly what :meth:`HeapFile.scan` would have.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterator, NamedTuple, Optional

from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.page import (
    DEFAULT_PAGE_SIZE, Page, PageFullError, PageView, check_record_size,
)
from repro.storage.record import StoredRecord

_file_ids = itertools.count()


class RecordId(NamedTuple):
    """Stable physical address of a record: (page number, slot)."""

    page: int
    slot: int


#: builds a :class:`RecordId` from a ``(page, slot)`` pair through
#: ``tuple.__new__``, skipping the Python-level constructor
#: ``NamedTuple`` generates — the page scans make one per record
_rid = partial(tuple.__new__, RecordId)


class HeapFile:
    """An unordered collection of pages holding serialized records."""

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        io: Optional[IOStats] = None,
        buffer_pool: Optional[BufferPool] = None,
    ) -> None:
        self.file_id = next(_file_ids)
        self.page_size = page_size
        self.io = io if io is not None else IOStats()
        self.buffer_pool = buffer_pool
        self._pages: list[Page] = []
        self._record_count = 0
        # page numbers that regained free space through deletions
        self._free_hints: list[int] = []

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._record_count

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def data_bytes(self) -> int:
        """Total live record payload bytes (what a full scan must read)."""
        return sum(page.used_bytes for page in self._pages)

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------
    def insert(self, record: bytes, mask: int) -> RecordId:
        """Append a record with its entity synopsis *mask*, opening a new
        page when nothing fits.

        Placement policy: try the tail page, then a bounded free-space
        hint list fed by deletions — constant work per insert instead of a
        full page-directory scan.
        """
        return self.place(StoredRecord(record, mask))

    def place(self, stored: StoredRecord) -> RecordId:
        """:meth:`insert` the record *stored* is, as that object (a move
        from another heap, see :meth:`take`)."""
        record = stored.data
        check_record_size(record, self.page_size)
        page_number = -1
        if self._pages and self._pages[-1].fits(record):
            page_number = len(self._pages) - 1
        else:
            while self._free_hints:
                hint = self._free_hints[-1]
                if hint < len(self._pages) and self._pages[hint].fits(record):
                    page_number = hint
                    break
                self._free_hints.pop()
        if page_number < 0:
            self._pages.append(Page(self.page_size))
            page_number = len(self._pages) - 1
        slot = self._pages[page_number].place(stored)
        self._record_count += 1
        self.io.records_written += 1
        self.io.bytes_written += len(record)
        self.io.pages_written += 1
        return RecordId(page_number, slot)

    def read(self, rid: RecordId) -> bytes:
        """Random access to one record (charges one page read)."""
        record = self._pages[rid.page].read(rid.slot)
        self._charge_page_read(rid.page, len(record))
        self.io.records_read += 1
        return record

    def take(self, rid: RecordId) -> StoredRecord:
        """:meth:`read` then :meth:`delete` one record, returned as the
        object it is stored as, for :meth:`place` on another heap."""
        stored = self._pages[rid.page].stored(rid.slot)
        self.read(rid)
        self.delete(rid)
        return stored

    def delete(self, rid: RecordId) -> bytes:
        record = self._pages[rid.page].delete(rid.slot)
        self._record_count -= 1
        self.io.records_deleted += 1
        if len(self._free_hints) < 64:
            self._free_hints.append(rid.page)
        return record

    def replace(self, rid: RecordId, record: bytes, mask: int) -> RecordId:
        """Update a record in place when it fits, else relocate it."""
        try:
            self._pages[rid.page].replace(rid.slot, record, mask)
        except PageFullError:
            self.delete(rid)
            return self.insert(record, mask)
        self.io.records_written += 1
        self.io.bytes_written += len(record)
        self.io.pages_written += 1
        return rid

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[tuple[RecordId, bytes]]:
        """Full scan in physical order, charging page/record/byte reads."""
        for page_number, page in enumerate(self._pages):
            charged_page = False
            for slot, record in page.records():
                if not charged_page:
                    self._charge_page_read(page_number, page.used_bytes)
                    charged_page = True
                self.io.records_read += 1
                yield _rid((page_number, slot)), record

    def charge_scan(self) -> None:
        """Charge exactly what a full :meth:`scan` charges — every page
        holding a live record, its bytes and records, in scan order
        through the buffer pool — without reading anything."""
        io = self.io
        for page_number, page in enumerate(self._pages):
            live = len(page)
            if live:
                self._charge_page_read(page_number, page.used_bytes)
                io.records_read += live

    def page_views(self) -> tuple[PageView, ...]:
        """The views of the pages holding live records, in :meth:`scan`
        order — a page unchanged since the last call gives the same
        object.  Charges nothing."""
        return tuple(view for view in map(Page.view, self._pages) if view.records)

    def _charge_page_read(self, page_number: int, payload_bytes: int) -> None:
        if self.buffer_pool is not None:
            if self.buffer_pool.access(self.file_id, page_number):
                self.io.buffer_hits += 1
                return
            self.io.buffer_misses += 1
        self.io.pages_read += 1
        self.io.bytes_read += payload_bytes

    def free(self) -> None:
        """Release all pages (partition dropped) and invalidate the cache."""
        self._pages.clear()
        self._record_count = 0
        self._free_hints.clear()
        if self.buffer_pool is not None:
            self.buffer_pool.invalidate_file(self.file_id)
