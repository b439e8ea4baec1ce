"""Tests for the transactional layer (the catalog's undo log)."""

import pytest

from repro.core.config import CinderellaConfig
from repro.core.partitioner import CinderellaPartitioner
from repro.table.partitioned import CinderellaTable
from repro.txn import TransactionError


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

    def test_rollback_restores_a_drained_partition(self):
        p = CinderellaPartitioner(
            CinderellaConfig(
                max_partition_size=50, weight=0.4, use_synopsis_index=True
            )
        )
        for eid in range(10):
            p.insert(eid, 0b0111 if eid % 3 else 0b0011)
        p.insert(10, 0b1_0011)  # the only member holding bit 4
        p.insert(20, 0b1100_0000)  # a second, disjoint partition
        catalog, index = p.catalog, p.catalog.index
        source = catalog.get(catalog.partition_of(10))
        assert len(source) == 11 and source.starters.complete
        before = catalog_signature(p)
        sizes = {q.pid: q.total_size for q in catalog}
        postings = {attr: set(pids) for attr, pids in index._postings.items()}
        empty = set(index._empty_synopsis_pids)
        versions = {q.pid: catalog.version_of(q.pid) for q in catalog}
        clock = catalog.version_clock

        txn = catalog.begin_transaction()
        drained = catalog.drain(source.pid)
        assert [eid for eid, _mask, _size in drained] == list(range(11))
        assert (source.mask, source.total_size, len(source)) == (0, 0.0, 0)
        assert not source.starters.complete
        assert all(not catalog.has_entity(eid) for eid, _m, _s in drained)
        assert index.candidate_pids(0b0011) == set()
        assert source.pid in index._empty_synopsis_pids
        assert catalog.version_clock == clock + 1  # one bump for the drain
        assert txn.mutation_count == 11  # one undo note per member
        txn.rollback()

        assert catalog_signature(p) == before
        assert {q.pid: q.total_size for q in catalog} == sizes
        assert index._postings == postings
        assert index._empty_synopsis_pids == empty
        assert all(catalog.partition_of(eid) == source.pid for eid in range(11))
        assert catalog.version_clock > clock + 1
        for pid, version in versions.items():
            assert catalog.version_of(pid) >= version
        assert catalog.version_of(source.pid) > versions[source.pid]
        assert p.check_invariants() == []

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


def small_table():
    table = CinderellaTable(CinderellaConfig(max_partition_size=4, weight=0.4))
    for eid in range(8):
        attributes = {"a": eid, "b": eid} if eid % 2 else {"c": eid}
        table.insert(attributes, entity_id=eid)
    return table


class TestAtomicOperations:
    """Table modifications inside a transaction opened the way the
    server's group commit opens it."""

    def test_insert_returns_outcome(self):
        table = small_table()
        with table.catalog.begin_transaction():
            outcome = table.insert({"a": 1, "b": 2}, entity_id=500)
        assert table.catalog.partition_of(500) == outcome.partition_id
        assert table.check_consistency() == []

    def test_validation_failure_rolls_back_and_propagates(self):
        table = small_table()
        before = catalog_signature(table.partitioner)
        txn = table.catalog.begin_transaction()
        savepoint = txn.savepoint()
        with pytest.raises(ValueError):
            table.insert({"a": 1}, entity_id=0)  # duplicate entity id
        txn.rollback_to(savepoint)
        txn.commit()
        assert catalog_signature(table.partitioner) == before
        assert table.check_consistency() == []

    def test_update_and_delete_commit_or_roll_back(self):
        table = small_table()
        with table.catalog.begin_transaction():
            table.update(0, {"a": 0, "b": 0})
            table.delete(1)
        assert not table.catalog.has_entity(1)
        assert table.check_consistency() == []
        before = catalog_signature(table.partitioner)
        for refused in (
            lambda: table.update(999, {"a": 1}),  # unknown entity
            lambda: table.delete(999),
        ):
            txn = table.catalog.begin_transaction()
            with pytest.raises(KeyError):
                refused()
            txn.rollback()
            assert catalog_signature(table.partitioner) == before
        assert table.check_consistency() == []
