"""Storage substrate: sparse records, slotted pages, heap files,
buffering, snapshots, and the node write-ahead log."""

from repro.storage.buffer import BufferPool
from repro.storage.entity import Entity
from repro.storage.heap import HeapFile, RecordId
from repro.storage.iostats import IOStats
from repro.storage.page import DEFAULT_PAGE_SIZE, Page, PageFullError
from repro.storage.record import (
    RecordFormatError,
    deserialize_record,
    serialize_record,
)
from repro.storage.snapshot import (
    SnapshotFormatError,
    load_table,
    save_table,
)
from repro.storage.wal import WALFormatError, WALRecord, WriteAheadLog, read_wal

__all__ = [
    "BufferPool",
    "DEFAULT_PAGE_SIZE",
    "Entity",
    "HeapFile",
    "IOStats",
    "Page",
    "PageFullError",
    "RecordFormatError",
    "RecordId",
    "SnapshotFormatError",
    "WALFormatError",
    "WALRecord",
    "WriteAheadLog",
    "deserialize_record",
    "load_table",
    "read_wal",
    "save_table",
    "serialize_record",
]
