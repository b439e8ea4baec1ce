"""Write-ahead log of a serving node.

A node's table lives in memory; the write-ahead log is what survives a
crash.  Every client write (and every resync delta) is appended as the
record :func:`repro.backup.apply_record` interprets and fsynced *before*
it is acknowledged or published, so a restarted node replays
``checkpoint + WAL tail`` (:mod:`repro.storage.snapshot`,
:mod:`repro.backup`) and arrives at the exact pre-crash table.  Replay
is exact because every record is applied by the same deterministic
interpreter that applied it the first time.

File format — one checksummed JSON line per record::

    <crc32 hex8> {"seq": 0, "op": "header", "payload": {"format": ...}}
    <crc32 hex8> {"seq": 5, "op": "insert", "payload": {"eid": 1, ...}}

The header's ``basis_seq`` is the sequence number already covered by
the companion checkpoint; a checkpoint rewrites the log to just a header
with ``basis_seq = last_seq``.  Records above the basis are numbered
without gaps and a reader refuses a log that skips one; it takes the
position from the records, not from the header's ``last_seq``.  A torn
*tail* (half-written last record, the normal result of crashing
mid-append) is silently truncated; corruption anywhere *before* the
tail means the file cannot be trusted and raises :class:`WALFormatError`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable, Optional, Union

from repro.obs import runtime as obs

WAL_FORMAT = "repro-wal"
WAL_VERSION = 1


class WALFormatError(ValueError):
    """Raised when a write-ahead log cannot be interpreted."""


class WALClosedError(ValueError):
    """Raised when a closed write-ahead log is asked to do journal work.

    Subclasses :class:`ValueError` so callers that treated the raw
    ``ValueError: I/O operation on closed file`` as "the journal went
    away under us" (the serving node's abort-mid-batch path) keep
    working — they just get a message that names the log and the
    operation instead of a file-object traceback.
    """


@dataclass(frozen=True)
class WALRecord:
    """One journaled operation."""

    seq: int
    op: str
    payload: dict[str, Any]


def _encode_line(seq: int, op: str, payload: dict[str, Any]) -> str:
    body = json.dumps(
        {"seq": seq, "op": op, "payload": payload}, separators=(",", ":")
    )
    checksum = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{checksum:08x} {body}\n"


def _decode_line(line: str) -> WALRecord:
    """Decode one line; raises WALFormatError on any inconsistency."""
    if len(line) < 10 or line[8] != " ":
        raise WALFormatError("malformed WAL line framing")
    stated, body = line[:8], line[9:]
    try:
        checksum = int(stated, 16)
    except ValueError:
        raise WALFormatError("malformed WAL checksum") from None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != checksum:
        raise WALFormatError("WAL checksum mismatch")
    try:
        document = json.loads(body)
        return WALRecord(document["seq"], document["op"], document["payload"])
    except (json.JSONDecodeError, KeyError, TypeError) as error:
        raise WALFormatError(f"malformed WAL record: {error}") from error


def sequence_gap(
    basis_seq: int, records: Iterable[WALRecord]
) -> Optional[tuple[int, int]]:
    """The first break in the run ``basis_seq + 1, basis_seq + 2, ...``
    as ``(expected, found)``; ``None`` when *records* are gap-free."""
    for expected, record in enumerate(records, basis_seq + 1):
        if record.seq != expected:
            return expected, record.seq
    return None


def _read_wal_full(
    path: Union[str, Path]
) -> tuple[dict[str, Any], list[WALRecord], int]:
    """Read a WAL file; return ``(header_payload, records, torn_lines)``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise WALFormatError(f"cannot read WAL {path}: {error}") from error
    except UnicodeDecodeError:
        text = Path(path).read_bytes().decode("utf-8", errors="replace")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise WALFormatError(f"WAL {path} is empty")
    records: list[WALRecord] = []
    torn = 0
    for index, line in enumerate(lines):
        try:
            record = _decode_line(line)
        except WALFormatError:
            if index == len(lines) - 1:
                torn = 1
                break
            raise
        records.append(record)
    if not records:
        raise WALFormatError(f"WAL {path} has no intact header")
    header = records.pop(0)
    if header.op != "header" or header.payload.get("format") != WAL_FORMAT:
        raise WALFormatError(f"{path} is not a write-ahead log")
    if header.payload.get("version") != WAL_VERSION:
        raise WALFormatError(
            f"unsupported WAL version {header.payload.get('version')!r}"
        )
    basis_seq = header.payload.get("basis_seq")
    if not isinstance(basis_seq, int):
        raise WALFormatError("WAL header lacks a basis_seq")
    gap = sequence_gap(basis_seq, records)
    if gap is not None:
        raise WALFormatError(
            f"WAL sequence gap: expected {gap[0]}, found {gap[1]}"
        )
    return header.payload, records, torn


def read_wal(path: Union[str, Path]) -> tuple[int, list[WALRecord], int]:
    """Read a WAL file; return ``(basis_seq, records, torn_lines)``.

    ``torn_lines`` counts trailing lines dropped as a torn tail (0 or
    1 — only the final line may be torn).  Corruption before the final
    line raises :class:`WALFormatError`.
    """
    header, records, torn = _read_wal_full(path)
    return header["basis_seq"], records, torn


class WriteAheadLog:
    """Append-only journal with checkpoint truncation.

    Opening an existing file resumes appending after its last intact
    record (a torn tail is truncated on open).  ``append`` flushes to
    the OS on every record and additionally fsyncs when ``sync=True``.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._closed = False
        self.torn_records_dropped = 0
        #: fsync calls performed
        self.syncs = 0
        if self.path.exists() and self.path.stat().st_size:
            header, records, torn = _read_wal_full(self.path)
            self.basis_seq = header["basis_seq"]
            self.last_seq = records[-1].seq if records else self.basis_seq
            self.torn_records_dropped = torn
            if torn:
                self._rewrite(self.basis_seq, records)
        else:
            self.basis_seq = 0
            self.last_seq = 0
            self._rewrite(0, [])
        self._handle = self.path.open("a", encoding="utf-8")

    def _rewrite(self, basis_seq: int, records: list[WALRecord]) -> None:
        """Atomically rewrite the log (open, torn-tail repair, reset)."""
        temporary = self.path.with_suffix(self.path.suffix + ".tmp")
        with temporary.open("w", encoding="utf-8") as handle:
            handle.write(_encode_line(0, "header", {
                "format": WAL_FORMAT,
                "version": WAL_VERSION,
                "basis_seq": basis_seq,
                "last_seq": self.last_seq,
            }))
            for record in records:
                handle.write(_encode_line(record.seq, record.op, record.payload))
            handle.flush()
            os.fsync(handle.fileno())
        temporary.replace(self.path)

    def _check_open(self, operation: str) -> None:
        if self._closed:
            raise WALClosedError(
                f"cannot {operation}: write-ahead log {self.path} is closed"
            )

    def append(self, op: str, payload: dict[str, Any], sync: bool = False) -> int:
        """Journal one operation; returns its sequence number.

        ``sync=True`` forces the record to stable storage (fsync) before
        returning.
        """
        self._check_open("append")
        seq = self.last_seq + 1
        self._handle.write(_encode_line(seq, op, payload))
        self._handle.flush()
        enabled = obs.is_enabled()
        if sync:
            fsync_started = perf_counter() if enabled else 0.0
            os.fsync(self._handle.fileno())
            self.syncs += 1
            if enabled:
                obs.inc(
                    "repro_wal_fsyncs_total",
                    help_text="WAL fsync calls (commit-record durability)",
                )
                obs.observe(
                    "repro_wal_fsync_seconds",
                    perf_counter() - fsync_started,
                    help_text="Wall time of one WAL fsync",
                )
        if enabled:
            obs.inc(
                "repro_wal_records_appended_total",
                help_text="Records appended to write-ahead logs",
            )
        self.last_seq = seq
        return seq

    def sync(self) -> None:
        """Force everything appended so far to stable storage.

        The group-commit primitive: a batcher appends a whole batch with
        ``sync=False`` and pays one fsync here before acknowledging any
        of it — same durability as per-record ``sync=True`` at a
        fraction of the fsync count.
        """
        self._check_open("sync")
        fsync_started = perf_counter() if obs.is_enabled() else 0.0
        os.fsync(self._handle.fileno())
        self.syncs += 1
        if obs.is_enabled():
            obs.inc(
                "repro_wal_fsyncs_total",
                help_text="WAL fsync calls (commit-record durability)",
            )
            obs.observe(
                "repro_wal_fsync_seconds",
                perf_counter() - fsync_started,
                help_text="Wall time of one WAL fsync",
            )

    def size_bytes(self) -> int:
        """Current on-disk size of the log file."""
        return self.path.stat().st_size

    def records(self) -> list[WALRecord]:
        """All intact records currently in the file (excludes header)."""
        _basis, records, _torn = read_wal(self.path)
        return records

    def reset(self, basis_seq: int) -> None:
        """Checkpoint truncation: drop all records, remember that the
        companion snapshot covers everything up to *basis_seq*."""
        self._check_open("reset")
        self._handle.close()
        self.last_seq = basis_seq
        self._rewrite(basis_seq, [])
        self.basis_seq = basis_seq
        self._handle = self.path.open("a", encoding="utf-8")

    def close(self) -> None:
        """Close the log handle; idempotent.  Further journal calls
        raise :class:`WALClosedError` instead of a raw file-object
        ``ValueError``."""
        if self._closed:
            return
        self._closed = True
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
