"""Fault-injection matrix: crash every operation at every step.

The acceptance bar of the transactional operation layer: for each
multi-step catalog operation (split-carrying insert, merge pass,
offline reorganization), a :class:`CrashInjector` kills the operation
at *every* step index in turn, and after each simulated crash

* ``check_invariants()`` comes back empty,
* the catalog equals its exact pre-operation state — not a single row
  lost or duplicated, starter pairs and ``next_pid`` included.

(The durable half — a node killed mid-checkpoint or mid-burst recovers
exactly from ``checkpoint + WAL`` — is ``test_backup.py``'s checkpoint
crash matrix and ``test_cluster_chaos.py``.)

The step counts come from a dry run with a counting injector
(``crash_at=None``), so the matrix automatically covers new steps as
operations grow.
"""

import pytest

from repro.core.config import CinderellaConfig
from repro.core.partitioner import CinderellaPartitioner
from repro.txn import atomic_insert, atomic_merge, atomic_reorganize
from repro.txn.crash import CrashInjector, MidOperationCrash

QUERY_MASKS = [0b0011, 0b1100, 0b0001]


def catalog_signature(partitioner):
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


def splitting_partitioner():
    """Small B so the next insert triggers a split cascade."""
    p = CinderellaPartitioner(CinderellaConfig(max_partition_size=4, weight=0.4))
    for eid in range(12):
        p.insert(eid, (0b0011 if eid % 2 else 0b1100) | (1 << (4 + eid % 3)))
    return p


def fragmented_partitioner():
    """Delete-heavy history leaving small mergeable fragments."""
    p = CinderellaPartitioner(CinderellaConfig(max_partition_size=10, weight=0.4))
    for eid in range(60):
        p.insert(eid, 0b0011 if eid % 2 else 0b1100)
    for eid in range(60):
        if eid % 5:
            p.delete(eid)
    return p


def count_steps(build, operation):
    """Dry-run *operation* on a fresh fixture to learn its step count."""
    counter = CrashInjector()
    operation(build(), counter.reached)
    assert counter.steps_seen > 0, "matrix would be empty — no steps hooked"
    return counter.steps_seen


def run_matrix(build, operation):
    """Crash at every step; assert exact rollback each time."""
    steps = count_steps(build, operation)
    for crash_at in range(steps):
        p = build()
        before = catalog_signature(p)
        entities = p.catalog.entity_count
        with pytest.raises(MidOperationCrash):
            operation(p, CrashInjector(crash_at).reached)
        assert p.check_invariants() == [], f"step {crash_at} broke invariants"
        assert catalog_signature(p) == before, (
            f"crash at step {crash_at} did not roll back exactly"
        )
        assert p.catalog.entity_count == entities
    return steps


class TestInMemoryCrashMatrix:
    def test_insert_with_split_cascade(self):
        steps = run_matrix(
            splitting_partitioner,
            lambda p, hook: atomic_insert(p, 99, 0b0011, crash_hook=hook),
        )
        assert steps >= 1

    def test_merge_pass(self):
        steps = run_matrix(
            fragmented_partitioner,
            lambda p, hook: atomic_merge(p, 0.5, crash_hook=hook),
        )
        # a merge pass has at least one member move plus a source drop
        assert steps >= 2

    def test_merge_pass_with_efficiency_guard(self):
        run_matrix(
            fragmented_partitioner,
            lambda p, hook: atomic_merge(
                p, 0.5, QUERY_MASKS, crash_hook=hook
            ),
        )

    def test_reorganize(self):
        steps = run_matrix(
            fragmented_partitioner,
            lambda p, hook: atomic_reorganize(
                p, query_masks=QUERY_MASKS, crash_hook=hook
            ),
        )
        # one step per replayed entity plus the swap
        assert steps == fragmented_partitioner().catalog.entity_count + 1

    def test_surviving_operation_commits_after_crashes(self):
        """The same operation, uninjected, still works after the matrix."""
        p = fragmented_partitioner()
        report = atomic_merge(p, 0.5)
        assert report.merge_count > 0
        assert p.check_invariants() == []
