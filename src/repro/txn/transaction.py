"""Undo-log transactions over the partition catalog.

A :class:`CatalogTransaction` records, for every catalog mutation made
while it is active, the information needed to reverse it.  ``rollback``
replays the log backwards through the same catalog API the forward
path used, so the synopsis bitmaps, sizes, entity location map, and the
optional synopsis index all return to their exact pre-transaction state;
the split-starter pairs — which the partitioner also mutates outside
member operations — are restored from before-images captured the first
time a transaction touches each partition.

The transaction is installed via
:meth:`~repro.catalog.catalog.PartitionCatalog.begin_transaction`; the
catalog's mutators call the ``note_*`` hooks.  Rollback detaches the
hooks first, so its own reversing mutations are not re-recorded.

Exact rollback is what turns a mid-operation crash from a corruption
into a non-event: the fault-injection matrix
(``tests/test_crash_matrix.py``) crashes every operation at every step
index and requires ``check_invariants()`` to come back empty with not a
single row lost or duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.catalog import PartitionCatalog


class TransactionError(RuntimeError):
    """Raised on transaction misuse (nesting, reuse after close)."""


#: before-image of one partition's split-starter pair
_StarterImage = tuple[Optional[int], int, Optional[int], int]


@dataclass(frozen=True)
class Savepoint:
    """A point inside an open transaction to roll back to.

    Captures the undo-log length plus the split-starter state of every
    partition the transaction had touched so far — starters are the one
    thing the log does not cover per-mutation (they are restored from
    first-touch images on full rollback), so a partial rollback needs
    their at-savepoint values explicitly.
    """

    log_len: int
    starter_images: dict[int, _StarterImage]


class CatalogTransaction:
    """One atomic scope of catalog mutations with exact rollback.

    Usable as a context manager: the transaction commits on clean exit
    and rolls back when the block raises (the exception propagates).

    >>> from repro.catalog.catalog import PartitionCatalog
    >>> catalog = PartitionCatalog()
    >>> with catalog.begin_transaction():
    ...     partition = catalog.create_partition()
    ...     catalog.add_entity(partition.pid, 1, 0b11, 1.0)
    >>> catalog.entity_count
    1
    """

    def __init__(self, catalog: "PartitionCatalog") -> None:
        self.catalog = catalog
        self.active = True
        #: forward-order mutation log; each entry starts with a tag
        self._log: list[tuple] = []
        #: pid -> split-starter before-image at first touch
        self._starter_images: dict[int, _StarterImage] = {}

    # ------------------------------------------------------------------
    # recording hooks (called by the catalog's mutators)
    # ------------------------------------------------------------------
    def note_touch(self, pid: int) -> None:
        """Capture a partition's starter before-image at first touch."""
        if pid not in self._starter_images:
            starters = self.catalog.get(pid).starters
            self._starter_images[pid] = (
                starters.eid_a, starters.mask_a,
                starters.eid_b, starters.mask_b,
            )

    def note_create(self, pid: int, previous_next_pid: int) -> None:
        self._log.append(("create", pid, previous_next_pid))

    def note_drop(self, pid: int) -> None:
        # drop requires the partition to be empty, so members need no
        # capture here — their removals are already in the log
        self.note_touch(pid)
        self._log.append(("drop", pid))

    def note_add(self, pid: int, eid: int) -> None:
        self.note_touch(pid)
        self._log.append(("add", pid, eid))

    def note_remove(self, pid: int, eid: int, mask: int, size: float) -> None:
        self.note_touch(pid)
        self._log.append(("remove", pid, eid, mask, size))

    def note_update(
        self, pid: int, eid: int, old_mask: int, old_size: float
    ) -> None:
        self.note_touch(pid)
        self._log.append(("update", pid, eid, old_mask, old_size))

    @property
    def mutation_count(self) -> int:
        """Mutations recorded so far (diagnostics/telemetry)."""
        return len(self._log)

    # ------------------------------------------------------------------
    # outcome
    # ------------------------------------------------------------------
    def _close(self) -> None:
        if not self.active:
            raise TransactionError("transaction already closed")
        self.active = False
        self.catalog._txn = None

    def commit(self) -> None:
        """Keep every recorded mutation; discard the undo log."""
        self._close()
        self._log.clear()
        self._starter_images.clear()

    def rollback(self) -> None:
        """Reverse every recorded mutation, newest first."""
        self._close()
        catalog = self.catalog
        for entry in reversed(self._log):
            self._reverse(entry)
        for pid, image in self._starter_images.items():
            if pid not in catalog:
                continue  # created inside the transaction, now gone again
            self._restore_starters(pid, image)
        self._log.clear()
        self._starter_images.clear()

    def _reverse(self, entry: tuple) -> None:
        """Apply the inverse of one recorded mutation."""
        catalog = self.catalog
        tag = entry[0]
        if tag == "add":
            _tag, _pid, eid = entry
            catalog.remove_entity(eid, repair_starters=False)
        elif tag == "remove":
            _tag, pid, eid, mask, size = entry
            catalog.add_entity(pid, eid, mask, size, observe_starters=False)
        elif tag == "update":
            _tag, _pid, eid, old_mask, old_size = entry
            catalog.update_entity(eid, old_mask, old_size)
        elif tag == "create":
            _tag, pid, previous_next_pid = entry
            catalog.drop_partition(pid)
            catalog._next_pid = previous_next_pid
        else:  # "drop"
            _tag, pid = entry
            catalog.create_partition_with_id(pid)

    def _restore_starters(self, pid: int, image: _StarterImage) -> None:
        starters = self.catalog.get(pid).starters
        (starters.eid_a, starters.mask_a,
         starters.eid_b, starters.mask_b) = image

    # ------------------------------------------------------------------
    # savepoints (group commit: per-op rollback inside one transaction)
    # ------------------------------------------------------------------
    def savepoint(self) -> Savepoint:
        """Mark the current state for a possible partial rollback.

        The serving layer's group commit wraps a whole write batch in
        one transaction and takes a savepoint before each operation, so
        a refused operation rolls back alone while the batch's earlier
        successes stand.
        """
        if not self.active:
            raise TransactionError("transaction already closed")
        images: dict[int, _StarterImage] = {}
        for pid in self._starter_images:
            if pid not in self.catalog:
                continue  # dropped inside the transaction before this point
            starters = self.catalog.get(pid).starters
            images[pid] = (
                starters.eid_a, starters.mask_a,
                starters.eid_b, starters.mask_b,
            )
        return Savepoint(log_len=len(self._log), starter_images=images)

    def rollback_to(self, savepoint: Savepoint) -> None:
        """Reverse every mutation recorded after *savepoint*.

        The transaction stays open and keeps recording.  Hooks are
        detached while the suffix replays (as in :meth:`rollback`), so
        reversing mutations are not re-recorded.
        """
        if not self.active:
            raise TransactionError("transaction already closed")
        if savepoint.log_len > len(self._log):
            raise TransactionError(
                f"savepoint at log position {savepoint.log_len} is ahead of "
                f"the log ({len(self._log)} entries)"
            )
        catalog = self.catalog
        catalog._txn = None
        try:
            for entry in reversed(self._log[savepoint.log_len:]):
                self._reverse(entry)
        finally:
            catalog._txn = self
        # starters: a pid first touched after the savepoint restores its
        # first-touch image (== its at-savepoint state) and leaves the
        # image set; a pid touched before it restores the state captured
        # at savepoint time and keeps its transaction-start image for a
        # later full rollback
        for pid in list(self._starter_images):
            if pid in savepoint.starter_images:
                continue
            image = self._starter_images.pop(pid)
            if pid in catalog:
                self._restore_starters(pid, image)
        for pid, image in savepoint.starter_images.items():
            if pid in catalog:
                self._restore_starters(pid, image)
        del self._log[savepoint.log_len:]

    # ------------------------------------------------------------------
    # context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "CatalogTransaction":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if not self.active:  # already resolved inside the block
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False
