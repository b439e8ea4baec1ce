"""The partition catalog — the system catalog of Algorithm 1.

The catalog is what the paper's prototype kept in its single "catalog
table": every partition's synopsis plus the bookkeeping needed to run the
algorithm (which partition an entity lives in, the split starters, sizes).
Algorithm 1's insert scans this catalog to rate each partition against the
incoming entity.

The catalog optionally carries a :class:`~repro.catalog.synopsis_index.SynopsisIndex`
that restricts the scan to overlapping partitions (the paper's future-work
extension); without it, :meth:`candidates` yields every partition, which is
the literal Algorithm 1 behaviour.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.catalog.partition import Partition
from repro.catalog.synopsis_index import SynopsisIndex


class EntityNotFoundError(KeyError):
    """Raised when an entity id is not present in any partition."""


class PartitionNotFoundError(KeyError):
    """Raised when a partition id is not present in the catalog."""


class PartitionCatalog:
    """All partitions of one universal table, addressable by id."""

    def __init__(self, index: Optional[SynopsisIndex] = None) -> None:
        self._partitions: dict[int, Partition] = {}
        self._entity_to_pid: dict[int, int] = {}
        self._next_pid = 0
        self.index = index
        #: active undo-log transaction (see :mod:`repro.txn.transaction`)
        self._txn = None
        # partition content versions (see the `versions` section below)
        self._versions: dict[int, int] = {}
        self._version_clock = 0
        #: pids bumped, created or dropped since changes were last taken
        self._changed: set[int] = set()
        self._changes_taken = 0

    # ------------------------------------------------------------------
    # versions
    # ------------------------------------------------------------------
    # Every content mutation of a partition — member added, removed, or
    # updated, partition created or re-created — stamps it with a fresh
    # value of a catalog-global monotonic clock.  The query result cache
    # (:mod:`repro.query.cache`) keys entries by ``(query, pid, version)``;
    # because the clock never goes backwards, a partition whose content
    # may differ from what a cached entry saw can never present the same
    # version again.  This holds through undo-log rollbacks (the inverse
    # operations run through these same mutators and keep bumping) and
    # through pid reuse after a rolled-back create (the re-created pid is
    # stamped from the still-advanced clock).  Split-starter maintenance
    # does not bump: starters never influence query results.
    #
    # Every bump and every drop also records the pid as changed, until a
    # reader takes the changes (:meth:`take_changes`): a snapshot publish
    # rebuilds just those partitions.

    def _bump_version(self, pid: int) -> None:
        self._version_clock += 1
        self._versions[pid] = self._version_clock
        self._changed.add(pid)

    def version_of(self, pid: int) -> int:
        """Current content version of one partition."""
        try:
            return self._versions[pid]
        except KeyError:
            raise PartitionNotFoundError(pid) from None

    @property
    def version_clock(self) -> int:
        """The catalog-global mutation clock (monotonic, never reused)."""
        return self._version_clock

    def take_changes(self, taken: int) -> tuple[Optional[set[int]], int]:
        """The pids bumped, created or dropped since changes were taken
        for the *taken*-th time, and the count to pass next time.

        The set is ``None`` when some other reader took changes in
        between: the caller must then compare every partition's version.
        A catalog with one reader (a table's snapshot manager) always
        hands it the set, which holds only what changed since it last
        asked.
        """
        changed = self._changed if taken == self._changes_taken else None
        self._changed = set()
        self._changes_taken += 1
        return changed, self._changes_taken

    def adopt_version_clock(self, other_clock: int) -> None:
        """Make this catalog's versions succeed another catalog's.

        Used when a rebuilt catalog replaces a live one (the swap of
        :meth:`repro.table.partitioned.CinderellaTable.reorganize`): the
        rebuilt catalog restarts pids from zero, so without this step a
        ``(pid, version)`` pair could collide with an entry cached
        against the replaced catalog.  Advancing the clock past the old
        one and re-stamping every partition makes all prior cache
        entries unservable.
        """
        self._version_clock = max(self._version_clock, other_clock)
        for pid in self._partitions:
            self._bump_version(pid)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin_transaction(self):
        """Start an undo-log transaction over this catalog.

        Every mutation until ``commit()``/``rollback()`` records its
        inverse; rollback restores the exact pre-transaction catalog.
        Transactions do not nest.
        """
        from repro.txn.transaction import CatalogTransaction, TransactionError

        if self._txn is not None:
            raise TransactionError("a catalog transaction is already active")
        txn = CatalogTransaction(self)
        self._txn = txn
        return txn

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._partitions)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self._partitions.values())

    def __contains__(self, pid: int) -> bool:
        return pid in self._partitions

    def partition_ids(self) -> tuple[int, ...]:
        return tuple(self._partitions)

    def get(self, pid: int) -> Partition:
        try:
            return self._partitions[pid]
        except KeyError:
            raise PartitionNotFoundError(pid) from None

    def create_partition(self) -> Partition:
        previous_next_pid = self._next_pid
        partition = Partition(self._next_pid)
        self._next_pid += 1
        self._partitions[partition.pid] = partition
        self._bump_version(partition.pid)
        if self.index is not None:
            self.index.register(partition.pid, partition.mask)
        if self._txn is not None:
            self._txn.note_create(partition.pid, previous_next_pid)
        return partition

    def create_partition_with_id(self, pid: int) -> Partition:
        """Recreate a partition under a known id (transaction rollback
        only: undoing a drop).

        Keeps ``_next_pid`` ahead of every restored id so future
        partitions never collide.
        """
        if pid in self._partitions:
            raise ValueError(f"partition {pid} already exists")
        previous_next_pid = self._next_pid
        partition = Partition(pid)
        self._partitions[pid] = partition
        self._next_pid = max(self._next_pid, pid + 1)
        self._bump_version(pid)
        if self.index is not None:
            self.index.register(partition.pid, partition.mask)
        if self._txn is not None:
            self._txn.note_create(pid, previous_next_pid)
        return partition

    @property
    def next_partition_id(self) -> int:
        """The id the next created partition will receive."""
        return self._next_pid

    def drop_partition(self, pid: int) -> None:
        partition = self.get(pid)
        if not partition.is_empty():
            raise ValueError(
                f"cannot drop partition {pid}: still holds {len(partition)} entities"
            )
        if self._txn is not None:
            self._txn.note_drop(pid)
        del self._partitions[pid]
        del self._versions[pid]
        self._changed.add(pid)
        if self.index is not None:
            self.index.unregister(pid, partition.mask)

    # ------------------------------------------------------------------
    # entities
    # ------------------------------------------------------------------
    @property
    def entity_count(self) -> int:
        return len(self._entity_to_pid)

    def partition_of(self, eid: int) -> int:
        try:
            return self._entity_to_pid[eid]
        except KeyError:
            raise EntityNotFoundError(eid) from None

    def has_entity(self, eid: int) -> bool:
        return eid in self._entity_to_pid

    def add_entity(
        self,
        pid: int,
        eid: int,
        mask: int,
        size: float,
        observe_starters: bool = True,
    ) -> None:
        """Place an entity in a partition and maintain index + location map."""
        if eid in self._entity_to_pid:
            raise ValueError(
                f"entity {eid} already placed in partition {self._entity_to_pid[eid]}"
            )
        partition = self.get(pid)
        if self._txn is not None:
            self._txn.note_add(pid, eid)
        added_bits = partition.add(eid, mask, size, observe_starters=observe_starters)
        self._entity_to_pid[eid] = pid
        self._bump_version(pid)
        if self.index is not None:
            self.index.on_bits_added(pid, added_bits)

    def remove_entity(
        self, eid: int, repair_starters: bool = True
    ) -> tuple[int, int, float]:
        """Remove an entity; return ``(pid, mask, size)`` it had."""
        pid = self.partition_of(eid)
        partition = self._partitions[pid]
        if self._txn is not None:
            member_mask, member_size = partition.member(eid)
            self._txn.note_remove(pid, eid, member_mask, member_size)
        mask, size, removed_bits = partition.remove(
            eid, repair_starters=repair_starters
        )
        del self._entity_to_pid[eid]
        self._bump_version(pid)
        if self.index is not None and removed_bits:
            self.index.on_bits_removed(pid, removed_bits, partition.mask)
        return pid, mask, size

    def drain(self, pid: int) -> list[tuple[int, int, float]]:
        """Empty a partition in one pass (a split's source); return its
        members as ``(eid, mask, size)`` in their current order.

        One version bump and one index update; the partition stays, empty,
        for the caller to drop.  An active transaction still records one
        removal per member, so rollback restores them one by one.
        """
        partition = self.get(pid)
        txn = self._txn
        if txn is not None:
            for eid, mask, size in partition.members():
                txn.note_remove(pid, eid, mask, size)
        removed_bits = partition.mask
        members = partition.detach()
        locations = self._entity_to_pid
        for eid, _mask, _size in members:
            del locations[eid]
        self._bump_version(pid)
        if self.index is not None and removed_bits:
            self.index.on_bits_removed(pid, removed_bits, 0)
        return members

    def observe_starters(self, pid: int, eid: int, mask: int) -> None:
        """Run starter maintenance for *eid* against partition *pid*.

        The partitioner calls this (Algorithm 1, lines 15–24) instead of
        touching ``partition.starters`` directly, so an active undo-log
        transaction can capture the pair's before-image first.
        """
        partition = self.get(pid)
        if self._txn is not None:
            self._txn.note_touch(pid)
        partition.starters.observe(eid, mask)

    def update_entity(self, eid: int, mask: int, size: float) -> int:
        """Update an entity in place; return its (unchanged) partition id."""
        pid = self.partition_of(eid)
        partition = self._partitions[pid]
        if self._txn is not None:
            old_mask, old_size = partition.member(eid)
            self._txn.note_update(pid, eid, old_mask, old_size)
        added_bits, removed_bits = partition.update_member(eid, mask, size)
        self._bump_version(pid)
        if self.index is not None:
            if added_bits:
                self.index.on_bits_added(pid, added_bits)
            if removed_bits:
                self.index.on_bits_removed(pid, removed_bits, partition.mask)
        return pid

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def candidates(self, entity_mask: int, weight: float) -> list[Partition]:
        """Partitions to rate for an insert (Algorithm 1, lines 4–7).

        Without an index this is every partition, in catalog order.  With
        the index, the scan is restricted to partitions that can possibly
        rate non-negatively (see :mod:`repro.catalog.synopsis_index` for
        the argument), in the iteration order of the index's pid set; at
        ``weight == 1.0`` the restriction would be unsound, so the full
        catalog is returned.
        """
        if self.index is None or weight >= 1.0:
            return list(self._partitions.values())
        pids = self.index.candidate_pids(entity_mask)
        return list(map(self._partitions.__getitem__, pids))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Return a list of invariant violations (empty = healthy).

        Checked invariants:

        * every entity is located in exactly the partition the location map
          says, and nowhere else;
        * partition synopses equal the union of their members' masks;
        * partition sizes equal the sum of their members' sizes;
        * split starters are members of their partition;
        * no empty partitions linger in the catalog;
        * the synopsis index (if any) matches the partition synopses.
        """
        problems: list[str] = []
        seen_entities: set[int] = set()
        for partition in self._partitions.values():
            union_mask = 0
            total = 0.0
            for eid, mask, size in partition.members():
                union_mask |= mask
                total += size
                if self._entity_to_pid.get(eid) != partition.pid:
                    problems.append(
                        f"entity {eid} in partition {partition.pid} but location "
                        f"map says {self._entity_to_pid.get(eid)}"
                    )
                if eid in seen_entities:
                    problems.append(f"entity {eid} appears in multiple partitions")
                seen_entities.add(eid)
            if union_mask != partition.mask:
                problems.append(
                    f"partition {partition.pid} synopsis {partition.mask:#x} != "
                    f"member union {union_mask:#x}"
                )
            if abs(total - partition.total_size) > 1e-9:
                problems.append(
                    f"partition {partition.pid} size {partition.total_size} != "
                    f"member sum {total}"
                )
            starters = partition.starters
            for starter_eid in (starters.eid_a, starters.eid_b):
                if starter_eid is not None and starter_eid not in partition:
                    problems.append(
                        f"starter {starter_eid} not a member of partition "
                        f"{partition.pid}"
                    )
            if partition.is_empty():
                problems.append(f"empty partition {partition.pid} not dropped")
        missing = set(self._entity_to_pid) - seen_entities
        if missing:
            problems.append(f"location map references missing entities {missing}")
        if set(self._versions) != set(self._partitions):
            problems.append(
                f"version map keys {sorted(self._versions)} != partition ids "
                f"{sorted(self._partitions)}"
            )
        over_clock = [
            pid for pid, version in self._versions.items()
            if version > self._version_clock
        ]
        if over_clock:
            problems.append(
                f"partitions {over_clock} stamped past the version clock "
                f"{self._version_clock}"
            )
        if self.index is not None:
            from repro.catalog.synopsis_index import verify_index_against_catalog

            problems.extend(
                verify_index_against_catalog(self.index, self._partitions.values())
            )
        return problems
