"""Node checkpointing, deterministic replay, and point-in-time recovery.

The checkpoint ordering — the invariant the crash matrix proves::

    collect → archive segment → write snapshot → archive checkpoint → reset WAL

The live WAL is truncated **last**, and only after the snapshot
covering it is durably on disk (fsynced temp file + atomic rename) and
its records are archived.  A crash anywhere in the sequence therefore
leaves recovery with at least one complete basis: either the old
snapshot plus the untruncated WAL, or the new snapshot plus an empty
tail.  Replay is made exact (never applied-twice) by sequence skipping:
a checkpoint records the ``wal_seq`` it covers and recovery replays
only records with a strictly greater sequence.

:func:`restore_to_seq` is the PITR entry point: pick the newest
archived checkpoint at or below the target sequence, replay archived
segment records up to the target, and verify the sequence run is
gap-free — a missing stretch of history is an error, not a silent
partial restore.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Union

from repro.backup.archive import BackupArchive, BackupError
from repro.obs import runtime as obs
from repro.query.snapshot import ShardScope
from repro.storage.snapshot import _decode_value, save_node_checkpoint
from repro.storage.wal import WALRecord, WriteAheadLog, sequence_gap

#: the ordered steps of one checkpoint, in crash-matrix order (the
#: ``archive_*`` steps only run when an archive is configured)
CHECKPOINT_STEPS = (
    "collect", "archive_segment", "write_snapshot",
    "archive_checkpoint", "reset_wal", "done",
)


def checkpoint_node(
    table,
    wal: WriteAheadLog,
    snapshot_path: Union[str, Path],
    archive: Optional[BackupArchive] = None,
    crash_hook: Optional[Callable[[str], None]] = None,
) -> dict[str, Any]:
    """Checkpoint one serving node: snapshot the table, then reset the WAL.

    Must run with the table quiesced (the server holds its write lock).
    *crash_hook* is called with each step name before the step executes
    — the crash matrix raises from it to kill the checkpoint at every
    point and then proves recovery is exact.
    """
    hook = crash_hook if crash_hook is not None else lambda _step: None
    checkpoint_seq = wal.last_seq
    hook("collect")
    records = wal.records()
    if archive is not None:
        hook("archive_segment")
        archive.archive_segment(wal.basis_seq, records)
    hook("write_snapshot")
    save_node_checkpoint(table, checkpoint_seq, snapshot_path)
    if archive is not None:
        hook("archive_checkpoint")
        archive.archive_checkpoint(snapshot_path, checkpoint_seq)
    hook("reset_wal")
    wal.reset(checkpoint_seq)
    hook("done")
    obs.event(
        "backup.checkpoint", path=str(snapshot_path),
        wal_seq=checkpoint_seq, records_truncated=len(records),
        archived=archive is not None,
    )
    return {
        "wal_seq": checkpoint_seq,
        "records_truncated": len(records),
        "snapshot_path": str(snapshot_path),
    }


def apply_record(table, op: str, payload: dict[str, Any]) -> Any:
    """Apply one write record to *table*: the only interpreter of the
    five record kinds.

    A serving node's batches and resync deltas go through here when
    they happen, and WAL replay and point-in-time recovery when they
    are read back, so a journal replays to what was applied by
    construction.  Returns the table's outcome (for ``sync_reset``, the
    number of entities it removed) and raises what the table raises —
    ``ValueError`` for a duplicate insert, ``KeyError`` for an unknown
    eid — and ``ValueError`` for a record kind it does not know.
    """
    if op == "insert":
        return table.insert(payload["attributes"], entity_id=payload.get("eid"))
    if op == "update":
        return table.update(payload["eid"], payload["attributes"])
    if op == "delete":
        return table.delete(payload["eid"])
    if op == "sync_put":
        # resync upsert: the peer's copy replaces whatever is local.
        # sync payloads carry snapshot-encoded values (they crossed the
        # wire from another node's table), unlike client writes whose
        # JSON attributes are stored verbatim
        attributes = {
            name: _decode_value(value)
            for name, value in payload["attributes"].items()
        }
        if payload["eid"] in table:
            return table.update(payload["eid"], attributes)
        return table.insert(attributes, entity_id=payload["eid"])
    if op == "sync_reset":
        scope = ShardScope(payload["n_shards"], frozenset(payload["shards"]))
        eids = table.entity_ids()
        doomed = scope.select(eids, eids)
        for eid in doomed:
            table.delete(eid)
        return len(doomed)
    raise ValueError(f"unknown record kind {op!r}")


def replay_into_table(
    table, records: Iterable[WALRecord], after_seq: int = 0
) -> int:
    """Replay *records* with ``seq > after_seq``; returns how many
    applied.  The sequence skip is what makes checkpoint recovery exact:
    records the snapshot already covers are never re-applied.

    A record the table refuses is skipped, with an event, not a failed
    recovery: an unknown kind (forward compatibility), or one already
    reflected in the catalog (duplicate insert, unknown eid) — sequence
    skipping makes genuine double-replay impossible, this tolerance
    only covers replay onto pre-seeded tables.
    """
    replayed = 0
    for record in records:
        if record.seq <= after_seq:
            continue
        try:
            apply_record(table, record.op, record.payload)
        except (KeyError, ValueError):
            obs.event("backup.replay_skip", seq=record.seq, op=record.op)
        else:
            replayed += 1
    return replayed


def restore_to_seq(
    archive: BackupArchive,
    to_seq: Optional[int] = None,
    table_factory: Optional[Callable[[], Any]] = None,
) -> tuple[Any, int]:
    """Point-in-time recovery: rebuild the table state as of *to_seq*.

    Loads the newest archived checkpoint at or below the target, then
    replays archived segment records up to it.  ``to_seq=None`` restores
    to the newest archived sequence.  Returns ``(table, restored_seq)``.

    Raises :class:`BackupError` when the archive cannot reach the target
    — no basis and no *table_factory* to start empty from, or a gap in
    the archived sequence run (a missing backup), which would silently
    drop writes if replayed through.
    """
    from repro.storage.snapshot import load_node_checkpoint

    if to_seq is None:
        to_seq = archive.last_archived_seq()
    checkpoint = archive.checkpoint_for(to_seq)
    if checkpoint is not None:
        table, base_seq = load_node_checkpoint(checkpoint.path)
    else:
        if table_factory is not None:
            table = table_factory()
        else:
            from repro.table.partitioned import CinderellaTable

            table = CinderellaTable()
        base_seq = 0
    records = archive.records_through(to_seq=to_seq, after_seq=base_seq)
    gap = sequence_gap(base_seq, records)
    if gap is not None:
        raise BackupError(
            f"archive {archive.root} is missing sequences "
            f"[{gap[0]}, {gap[1]}) — cannot restore to "
            f"{to_seq} without losing writes"
        )
    if base_seq + len(records) < to_seq:
        raise BackupError(
            f"archive {archive.root} ends at sequence "
            f"{base_seq + len(records)}; cannot restore to {to_seq}"
        )
    replay_into_table(table, records, after_seq=base_seq)
    obs.event(
        "backup.restored", root=str(archive.root), to_seq=to_seq,
        basis_seq=base_seq, records_replayed=len(records),
    )
    return table, to_seq
