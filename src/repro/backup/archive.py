"""WAL segment archiving: the retained history behind PITR and resync.

A :class:`BackupArchive` is a directory of immutable files next to a
serving node's live state::

    <root>/segments/segment-000000000001-000000000042.wal
    <root>/checkpoints/checkpoint-000000000042.json

*Segments* are byte-exact copies of a WAL's records (same checksummed
line format, re-readable with :func:`repro.storage.wal.read_wal`),
archived **before** every checkpoint truncation — so resetting the live
journal never discards history.  *Checkpoints* are copies of node
checkpoint snapshots (:func:`repro.storage.snapshot.save_node_checkpoint`),
keyed by the WAL sequence they cover.

Both writes are idempotent (an existing file with the target name is
kept, never rewritten) and atomic (temp file, fsync, rename), so a
crash between "archive" and "truncate" merely re-archives the same
bytes on the next attempt.  Overlapping segments are legal for the same
reason; :meth:`BackupArchive.records_through` deduplicates by sequence
number when reading history back.

:meth:`BackupArchive.scrub` is the at-rest verifier: every checkpoint
must pass its payload checksum, every segment must decode cleanly with
no torn tail and match the range its filename claims.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from repro.obs import runtime as obs
from repro.storage.snapshot import SnapshotFormatError, load_node_checkpoint
from repro.storage.wal import (
    WAL_FORMAT,
    WAL_VERSION,
    WALFormatError,
    WALRecord,
    _encode_line,
    read_wal,
    sequence_gap,
)

_SEGMENT_RE = re.compile(r"^segment-(\d{12})-(\d{12})\.wal$")
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{12})\.json$")


class BackupError(RuntimeError):
    """An archive cannot satisfy a restore request (missing history)."""


@dataclass(frozen=True)
class ArchivedSegment:
    """One archived WAL segment: the closed range of sequences it holds."""

    first_seq: int
    last_seq: int
    path: Path


@dataclass(frozen=True)
class ArchivedCheckpoint:
    """One archived node checkpoint and the WAL sequence it covers."""

    wal_seq: int
    path: Path


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    temporary = path.with_suffix(path.suffix + ".tmp")
    with temporary.open("wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    temporary.replace(path)


class BackupArchive:
    """A directory of archived WAL segments and checkpoints (module docs)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.checkpoints_dir = self.root / "checkpoints"

    # ------------------------------------------------------------------
    # archiving (idempotent, atomic)
    # ------------------------------------------------------------------
    def archive_segment(
        self, basis_seq: int, records: Iterable[WALRecord]
    ) -> Optional[Path]:
        """Archive *records* (a WAL's current tail above *basis_seq*).

        Returns the segment path, or ``None`` when there was nothing to
        archive; a tail that does not start at ``basis_seq + 1`` or
        skips a sequence number is refused with :class:`BackupError`
        and nothing is written.  An existing segment with the same
        sequence range is trusted and kept — re-archiving after a crash
        mid-checkpoint writes the same bytes, so the first copy stands.
        """
        kept = list(records)
        if not kept:
            return None
        gap = sequence_gap(basis_seq, kept)
        if gap is not None:
            raise BackupError(
                f"WAL tail above seq {basis_seq} is not gap-free "
                f"(expected {gap[0]}, found {gap[1]}); refusing to "
                f"archive it"
            )
        first, last = kept[0].seq, kept[-1].seq
        path = self.segments_dir / f"segment-{first:012d}-{last:012d}.wal"
        if path.exists():
            return path
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        lines = [_encode_line(0, "header", {
            "format": WAL_FORMAT,
            "version": WAL_VERSION,
            "basis_seq": basis_seq,
            "last_seq": last,
        })]
        lines.extend(
            _encode_line(record.seq, record.op, record.payload)
            for record in kept
        )
        _atomic_write_bytes(path, "".join(lines).encode("utf-8"))
        obs.event(
            "backup.segment_archived", path=str(path),
            first_seq=first, last_seq=last, records=len(kept),
        )
        return path

    def archive_checkpoint(
        self, snapshot_path: Union[str, Path], wal_seq: int
    ) -> Path:
        """Copy a node checkpoint file into the archive, keyed by the
        WAL sequence it covers.  Idempotent like segments."""
        path = self.checkpoints_dir / f"checkpoint-{wal_seq:012d}.json"
        if path.exists():
            return path
        self.checkpoints_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write_bytes(path, Path(snapshot_path).read_bytes())
        obs.event(
            "backup.checkpoint_archived", path=str(path), wal_seq=wal_seq,
        )
        return path

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def segments(self) -> list[ArchivedSegment]:
        """Archived segments, ordered by first sequence."""
        found = []
        if self.segments_dir.is_dir():
            for entry in self.segments_dir.iterdir():
                match = _SEGMENT_RE.match(entry.name)
                if match:
                    found.append(ArchivedSegment(
                        int(match.group(1)), int(match.group(2)), entry
                    ))
        return sorted(found, key=lambda s: (s.first_seq, s.last_seq))

    def checkpoints(self) -> list[ArchivedCheckpoint]:
        """Archived checkpoints, ordered by covered sequence."""
        found = []
        if self.checkpoints_dir.is_dir():
            for entry in self.checkpoints_dir.iterdir():
                match = _CHECKPOINT_RE.match(entry.name)
                if match:
                    found.append(ArchivedCheckpoint(int(match.group(1)), entry))
        return sorted(found, key=lambda c: c.wal_seq)

    def checkpoint_for(
        self, to_seq: Optional[int] = None
    ) -> Optional[ArchivedCheckpoint]:
        """The newest checkpoint at or before *to_seq* (latest if None)."""
        best = None
        for checkpoint in self.checkpoints():
            if to_seq is not None and checkpoint.wal_seq > to_seq:
                break
            best = checkpoint
        return best

    def last_archived_seq(self) -> int:
        """The highest sequence the archive holds (0 when empty)."""
        high = 0
        segments = self.segments()
        if segments:
            high = max(segment.last_seq for segment in segments)
        checkpoints = self.checkpoints()
        if checkpoints:
            high = max(high, checkpoints[-1].wal_seq)
        return high

    def records_through(
        self, to_seq: Optional[int] = None, after_seq: int = 0
    ) -> list[WALRecord]:
        """Every archived record with ``after_seq < seq <= to_seq``,
        deduplicated across overlapping segments, in sequence order."""
        by_seq: dict[int, WALRecord] = {}
        for segment in self.segments():
            if segment.last_seq <= after_seq:
                continue
            if to_seq is not None and segment.first_seq > to_seq:
                continue
            _basis, records, torn = read_wal(segment.path)
            if torn:
                raise WALFormatError(
                    f"archived segment {segment.path} has a torn tail"
                )
            for record in records:
                if record.seq <= after_seq:
                    continue
                if to_seq is not None and record.seq > to_seq:
                    continue
                by_seq.setdefault(record.seq, record)
        return [by_seq[seq] for seq in sorted(by_seq)]

    # ------------------------------------------------------------------
    # at-rest verification
    # ------------------------------------------------------------------
    def scrub(self) -> dict[str, Any]:
        """Verify every archived file; returns a report with ``problems``
        (empty list = clean archive)."""
        problems: list[str] = []
        records_verified = 0
        checkpoints = self.checkpoints()
        for checkpoint in checkpoints:
            try:
                _table, wal_seq = load_node_checkpoint(checkpoint.path)
            except SnapshotFormatError as error:
                problems.append(f"{checkpoint.path.name}: {error}")
                continue
            if wal_seq != checkpoint.wal_seq:
                problems.append(
                    f"{checkpoint.path.name}: filename claims seq "
                    f"{checkpoint.wal_seq} but the snapshot covers {wal_seq}"
                )
        segments = self.segments()
        for segment in segments:
            try:
                _basis, records, torn = read_wal(segment.path)
            except WALFormatError as error:
                problems.append(f"{segment.path.name}: {error}")
                continue
            if torn:
                problems.append(f"{segment.path.name}: torn tail")
                continue
            if not records:
                problems.append(f"{segment.path.name}: no records")
                continue
            records_verified += len(records)
            first, last = records[0].seq, records[-1].seq
            if (first, last) != (segment.first_seq, segment.last_seq):
                problems.append(
                    f"{segment.path.name}: filename claims "
                    f"[{segment.first_seq}, {segment.last_seq}] but the "
                    f"records span [{first}, {last}]"
                )
        report = {
            "root": str(self.root),
            "checkpoints_verified": len(checkpoints),
            "segments_verified": len(segments),
            "records_verified": records_verified,
            "problems": problems,
        }
        obs.event(
            "backup.scrub", root=str(self.root),
            checkpoints=len(checkpoints), segments=len(segments),
            problems=len(problems),
        )
        return report
