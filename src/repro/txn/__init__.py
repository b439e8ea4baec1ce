"""Transactional layer for multi-step catalog mutations.

Cinderella's splits and merge passes are multi-step catalog mutations;
interrupted half-way they would leave the catalog violating its own
invariants.  An undo-log transaction makes each of them atomic in
memory: the server's group commit opens one per write batch, and
:meth:`~repro.table.partitioned.CinderellaTable.merge_small_partitions`
one per merge pass (an offline reorganization rebuilds on a scratch
catalog and swaps it in whole, so it needs none).  Durability is the
node's WAL (:mod:`repro.storage.wal` under :mod:`repro.server`), which
journals the client write and re-runs it on replay.

* :mod:`repro.txn.transaction` — an undo log hooked into the
  :class:`~repro.catalog.catalog.PartitionCatalog`: every mutation made
  while a transaction is active records its inverse, and ``rollback``
  restores the exact pre-operation catalog (members, synopses, sizes,
  split starters, partition ids, synopsis index).
* :mod:`repro.txn.crash` — the crash injector the fault-injection
  matrices install as the partitioner's ``crash_hook`` (and pass as
  ``checkpoint_node``'s).
"""

from repro.txn.crash import CrashInjector, MidOperationCrash
from repro.txn.transaction import CatalogTransaction, TransactionError

__all__ = [
    "CatalogTransaction",
    "CrashInjector",
    "MidOperationCrash",
    "TransactionError",
]
