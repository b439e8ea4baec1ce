"""Transactional operation layer for multi-step catalog mutations.

Cinderella's splits, merge passes, and offline reorganizations are
multi-step catalog mutations; interrupted half-way they would leave the
catalog violating its own invariants.  This package makes every such
operation atomic in memory; durability is the node's WAL
(:mod:`repro.storage.wal` under :mod:`repro.server`), which journals
the client write and re-runs it on replay.

* :mod:`repro.txn.transaction` — an undo log hooked into the
  :class:`~repro.catalog.catalog.PartitionCatalog`: every mutation made
  while a transaction is active records its inverse, and ``rollback``
  restores the exact pre-operation catalog (members, synopses, sizes,
  split starters, partition ids, synopsis index).
* :mod:`repro.txn.ops` — atomic wrappers for the partitioner's
  modification interface and the maintenance passes, with a step hook
  at every step boundary.
* :mod:`repro.txn.crash` — the crash injector the fault-injection
  matrices pass as that hook (and as ``checkpoint_node``'s).
"""

from repro.txn.crash import CrashInjector, MidOperationCrash
from repro.txn.ops import (
    atomic_delete,
    atomic_insert,
    atomic_merge,
    atomic_reorganize,
    atomic_update,
)
from repro.txn.transaction import CatalogTransaction, TransactionError

__all__ = [
    "CatalogTransaction",
    "CrashInjector",
    "MidOperationCrash",
    "TransactionError",
    "atomic_delete",
    "atomic_insert",
    "atomic_merge",
    "atomic_reorganize",
    "atomic_update",
]
