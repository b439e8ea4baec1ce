"""Fault-injection matrix: crash every table operation at every step.

The acceptance bar of the transactional layer: for each multi-step
operation of a :class:`CinderellaTable` (an insert with a split cascade
inside a batch transaction, a merge pass, an offline reorganization), a
:class:`CrashInjector` installed as the partitioner's ``crash_hook``
kills the operation at *every* step index in turn, and after each
simulated crash

* the catalog equals its exact pre-operation state — not a single row
  lost or duplicated, starter pairs and ``next_pid`` included,
* ``check_invariants()`` and ``check_consistency()`` come back empty —
  the heaps still match the catalog,
* ``execute`` answers a fixed query set exactly like ``execute_naive``,
  and with the rows served before the operation.

(The durable half — a node killed mid-checkpoint or mid-burst recovers
exactly from ``checkpoint + WAL`` — is ``test_backup.py``'s checkpoint
crash matrix and ``test_cluster_chaos.py``.)

The step counts come from a dry run with a counting injector
(``crash_at=None``), so the matrix automatically covers new steps as
operations grow.
"""

import pytest

from repro.core.config import CinderellaConfig
from repro.query.query import AttributeQuery
from repro.table.partitioned import CinderellaTable
from repro.txn.crash import CrashInjector, MidOperationCrash

#: the efficiency guard's workload on the fragmented table, whose
#: dictionary hands out bits in first-seen order (c, d, a, b): {c, d},
#: {a, b} and {c}
QUERY_MASKS = [0b0011, 0b1100, 0b0001]
QUERIES = [
    AttributeQuery(("a",)),
    AttributeQuery(("c",)),
    AttributeQuery(("a", "d"), mode="any"),
    AttributeQuery(("c", "d"), mode="all"),
    AttributeQuery(("x0", "x2"), mode="any"),
]


def attributes(eid, ab):
    names = ("a", "b") if ab else ("c", "d")
    return {name: eid for name in names}


def catalog_signature(table):
    return (
        sorted(
            (
                p.pid,
                p.mask,
                tuple(sorted(p.members())),
                (p.starters.eid_a, p.starters.mask_a,
                 p.starters.eid_b, p.starters.mask_b),
            )
            for p in table.catalog
        ),
        table.catalog.next_partition_id,
    )


def served(table):
    """Every query's rows, checked against the unpruned oracle."""
    rows = []
    for query in QUERIES:
        fast = table.execute(query).rows
        assert fast == table.execute_naive(query).rows, query.sql()
        rows.append(sorted(repr(sorted(row.items())) for row in fast))
    return rows


#: an insert that overflows a full partition of ``splitting_table``
SPLITTING_INSERT = {"a": 99, "x1": 99}


def splitting_table():
    """Small B so the next insert triggers a split cascade."""
    table = CinderellaTable(CinderellaConfig(max_partition_size=4, weight=0.4))
    for eid in range(12):
        table.insert(
            dict(attributes(eid, eid % 2), **{f"x{eid % 3}": eid}),
            entity_id=eid,
        )
    return table


def fragmented_table():
    """Delete-heavy history leaving small mergeable fragments."""
    table = CinderellaTable(CinderellaConfig(max_partition_size=10, weight=0.4))
    for eid in range(60):
        table.insert(attributes(eid, eid % 2), entity_id=eid)
    for eid in range(60):
        if eid % 5:
            table.delete(eid)
    return table


def insert_in_batch(table):
    """One insert inside a transaction opened the way the server's group
    commit opens it: a failure rolls back to the write's savepoint and
    the rest of the batch commits."""
    txn = table.catalog.begin_transaction()
    savepoint = txn.savepoint()
    try:
        table.insert(SPLITTING_INSERT, entity_id=99)
    except MidOperationCrash:
        txn.rollback_to(savepoint)
        txn.commit()
        raise
    txn.commit()


def count_steps(build, operation):
    """Dry-run *operation* on a fresh fixture to learn its step count."""
    table = build()
    counter = CrashInjector()
    table.partitioner.crash_hook = counter.reached
    operation(table)
    assert counter.steps_seen > 0, "matrix would be empty — no steps hooked"
    return counter.steps_seen


def run_matrix(build, operation):
    """Crash at every step; assert the table is left exactly as it was."""
    steps = count_steps(build, operation)
    for crash_at in range(steps):
        table = build()
        before = catalog_signature(table)
        rows = served(table)
        entities = len(table)
        table.partitioner.crash_hook = CrashInjector(crash_at).reached
        with pytest.raises(MidOperationCrash):
            operation(table)
        table.partitioner.crash_hook = None
        assert catalog_signature(table) == before, (
            f"crash at step {crash_at} did not roll back exactly"
        )
        assert table.partitioner.check_invariants() == [], (
            f"step {crash_at} broke invariants"
        )
        assert table.check_consistency() == [], (
            f"step {crash_at} tore the heaps from the catalog"
        )
        assert served(table) == rows, f"step {crash_at} changed served rows"
        assert len(table) == entities
    return steps


class TestInMemoryCrashMatrix:
    def test_insert_with_split_cascade(self):
        assert splitting_table().insert(SPLITTING_INSERT, entity_id=99).splits
        steps = run_matrix(splitting_table, insert_in_batch)
        # placement, then the split's target creation, moves and drop
        assert steps >= 4

    def test_merge_pass(self):
        steps = run_matrix(
            fragmented_table, lambda t: t.merge_small_partitions(0.5)
        )
        # a merge pass has at least one member move plus a source drop
        assert steps >= 2

    def test_merge_pass_with_efficiency_guard(self):
        run_matrix(
            fragmented_table,
            lambda t: t.merge_small_partitions(0.5, QUERY_MASKS),
        )

    def test_reorganize(self):
        steps = run_matrix(
            fragmented_table, lambda t: t.reorganize(query_masks=QUERY_MASKS)
        )
        # one step per replayed entity plus the swap
        assert steps == len(fragmented_table()) + 1

    def test_surviving_operation_commits_after_crashes(self):
        """The same operations, uninjected, still work after the matrix."""
        table = fragmented_table()
        rows = served(table)
        report = table.merge_small_partitions(0.5)
        assert report.merge_count > 0
        assert table.check_consistency() == []
        assert served(table) == rows
        table.reorganize()
        assert table.check_consistency() == []
        assert served(table) == rows
