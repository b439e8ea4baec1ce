"""Tests for the transactional operation layer (undo log + atomic wrappers)."""

import pytest

from repro.core.config import CinderellaConfig
from repro.core.partitioner import CinderellaPartitioner
from repro.txn import (
    TransactionError,
    atomic_delete,
    atomic_insert,
    atomic_update,
)


def catalog_signature(partitioner):
    """Everything rollback must restore exactly."""
    return (
        sorted(
            (
                p.pid,
                p.mask,
                tuple(sorted(p.members())),
                (p.starters.eid_a, p.starters.mask_a,
                 p.starters.eid_b, p.starters.mask_b),
            )
            for p in partitioner.catalog
        ),
        partitioner.catalog.next_partition_id,
    )


def small_partitioner():
    p = CinderellaPartitioner(CinderellaConfig(max_partition_size=4, weight=0.4))
    for eid in range(8):
        p.insert(eid, 0b0011 if eid % 2 else 0b1100)
    return p


class TestCatalogTransaction:
    def test_commit_keeps_mutations(self):
        p = small_partitioner()
        with p.catalog.begin_transaction():
            p.insert(100, 0b0011)
        assert p.catalog.has_entity(100)
        assert p.check_invariants() == []

    def test_rollback_restores_exact_catalog(self):
        p = small_partitioner()
        before = catalog_signature(p)
        txn = p.catalog.begin_transaction()
        p.insert(100, 0b0011)
        p.delete(0)
        p.update(1, 0b0111)
        txn.rollback()
        assert catalog_signature(p) == before
        assert p.check_invariants() == []

    def test_context_manager_rolls_back_on_exception(self):
        p = small_partitioner()
        before = catalog_signature(p)
        with pytest.raises(RuntimeError, match="boom"):
            with p.catalog.begin_transaction():
                p.insert(100, 0b0011)
                raise RuntimeError("boom")
        assert catalog_signature(p) == before

    def test_rollback_restores_dropped_partitions_and_next_pid(self):
        p = small_partitioner()
        before = catalog_signature(p)
        txn = p.catalog.begin_transaction()
        # delete every member of one partition so it gets dropped, then
        # create fresh partitions (advancing next_pid)
        victim = next(iter(p.catalog)).pid
        for eid in list(p.catalog.get(victim).entity_ids()):
            p.delete(eid)
        p.insert(200, 0b1111_0000)
        txn.rollback()
        assert catalog_signature(p) == before

    def test_rollback_restores_split_starters(self):
        p = small_partitioner()
        before = catalog_signature(p)
        txn = p.catalog.begin_transaction()
        # inserts run starter maintenance on the partitions they touch
        for eid in range(300, 312):
            p.insert(eid, 0b0011)
        txn.rollback()
        assert catalog_signature(p) == before

    def test_transactions_do_not_nest(self):
        p = small_partitioner()
        txn = p.catalog.begin_transaction()
        with pytest.raises(TransactionError):
            p.catalog.begin_transaction()
        txn.rollback()

    def test_closed_transaction_rejects_reuse(self):
        p = small_partitioner()
        txn = p.catalog.begin_transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.rollback()

    def test_new_transaction_allowed_after_close(self):
        p = small_partitioner()
        p.catalog.begin_transaction().commit()
        txn = p.catalog.begin_transaction()
        txn.rollback()


class TestAtomicOperations:
    def test_atomic_insert_returns_outcome(self):
        p = small_partitioner()
        outcome = atomic_insert(p, 500, 0b0011)
        assert p.catalog.partition_of(500) == outcome.partition_id
        assert p.check_invariants() == []

    def test_validation_failure_rolls_back_and_propagates(self):
        p = small_partitioner()
        before = catalog_signature(p)
        with pytest.raises(ValueError):
            atomic_insert(p, 0, 0b0011)  # duplicate entity id
        assert catalog_signature(p) == before

    def test_update_and_delete_commit_or_roll_back(self):
        p = small_partitioner()
        atomic_update(p, 0, 0b0011)
        atomic_delete(p, 1)
        assert not p.catalog.has_entity(1)
        assert p.check_invariants() == []
        before = catalog_signature(p)
        for refused in (
            lambda: atomic_update(p, 999, 0b0011),  # unknown entity
            lambda: atomic_delete(p, 999),
        ):
            with pytest.raises(KeyError):
                refused()
            assert catalog_signature(p) == before
