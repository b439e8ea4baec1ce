"""Atomic wrappers for every multi-step catalog operation.

Each wrapper runs one operation — a modification that may cascade into
splits, a merge pass, an offline reorganization — inside a
:class:`~repro.txn.transaction.CatalogTransaction`:

1. the operation applies its steps, each guarded by the crash hook;
2. on success the undo log is discarded;
3. on *any* failure — a validation error, a host exception, or an
   injected :class:`~repro.txn.crash.MidOperationCrash` — the undo log
   rolls the catalog back to the exact pre-operation state.

Durability is not this layer's job: a serving node journals the client
write itself (:func:`repro.backup.apply_record` under group commit) and
re-runs it on replay.

``crash_hook`` is a callable invoked with a step label at every step
boundary; the fault-injection matrix passes
:meth:`~repro.txn.crash.CrashInjector.reached`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from repro.maintenance.merger import MergeReport, merge_small_partitions
from repro.maintenance.reorganizer import ReorganizationReport, reorganize
from repro.obs import runtime as obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.outcomes import ModificationOutcome
    from repro.core.partitioner import CinderellaPartitioner

CrashHook = Callable[[str], None]

#: memoized span names — ``f"txn.{kind}"`` would allocate per write on
#: the group-commit path
_SPAN_NAMES: dict[str, str] = {}


def _run_atomic(
    partitioner: "CinderellaPartitioner",
    kind: str,
    operation: Callable[[CrashHook], Any],
    crash_hook: Optional[CrashHook],
):
    """Apply one operation under an undo log; commit or roll back."""
    step_index = 0

    def hook(label: str) -> None:
        nonlocal step_index
        step_index += 1
        if crash_hook is not None:
            crash_hook(label)

    txn = partitioner.catalog.begin_transaction()
    span_name = _SPAN_NAMES.get(kind)
    if span_name is None:
        span_name = _SPAN_NAMES.setdefault(kind, f"txn.{kind}")
    with obs.span(span_name) as span:
        try:
            result = operation(hook)
        except BaseException as error:
            txn.rollback()
            obs.event(
                "txn.rollback", kind=kind,
                error=f"{type(error).__name__}: {error}",
            )
            obs.inc(
                "repro_txn_ops_total",
                help_text="Atomic catalog operations by kind and outcome",
                kind=kind, outcome="rolled_back",
            )
            raise
        txn.commit()
        obs.inc(
            "repro_txn_ops_total",
            help_text="Atomic catalog operations by kind and outcome",
            kind=kind, outcome="committed",
        )
        if span.is_recording:
            span.set("steps", step_index)
    return result


def _with_partitioner_hook(
    partitioner: "CinderellaPartitioner",
    hook: CrashHook,
    call: Callable[[], Any],
):
    """Install *hook* as the partitioner's step hook for one call."""
    previous = partitioner.crash_hook
    partitioner.crash_hook = hook
    try:
        return call()
    finally:
        partitioner.crash_hook = previous


def atomic_insert(
    partitioner: "CinderellaPartitioner",
    eid: int,
    mask: int,
    payload_bytes: int = 0,
    *,
    crash_hook: Optional[CrashHook] = None,
) -> "ModificationOutcome":
    """Insert atomically: a crash mid-split leaves no trace of the op."""
    return _run_atomic(
        partitioner,
        "insert",
        lambda hook: _with_partitioner_hook(
            partitioner, hook,
            lambda: partitioner.insert(eid, mask, payload_bytes),
        ),
        crash_hook,
    )


def atomic_update(
    partitioner: "CinderellaPartitioner",
    eid: int,
    mask: int,
    payload_bytes: int = 0,
    *,
    crash_hook: Optional[CrashHook] = None,
) -> "ModificationOutcome":
    """Update atomically (the move/split path is multi-step)."""
    return _run_atomic(
        partitioner,
        "update",
        lambda hook: _with_partitioner_hook(
            partitioner, hook,
            lambda: partitioner.update(eid, mask, payload_bytes),
        ),
        crash_hook,
    )


def atomic_delete(
    partitioner: "CinderellaPartitioner",
    eid: int,
    *,
    crash_hook: Optional[CrashHook] = None,
) -> "ModificationOutcome":
    """Delete atomically (remove + possible partition drop)."""
    return _run_atomic(
        partitioner,
        "delete",
        lambda hook: _with_partitioner_hook(
            partitioner, hook, lambda: partitioner.delete(eid)
        ),
        crash_hook,
    )


def atomic_merge(
    partitioner: "CinderellaPartitioner",
    min_fill: float = 0.25,
    query_masks: Optional[Sequence[int]] = None,
    *,
    crash_hook: Optional[CrashHook] = None,
) -> MergeReport:
    """Run a merge pass atomically: all merges commit, or none do."""
    return _run_atomic(
        partitioner,
        "merge",
        lambda hook: merge_small_partitions(
            partitioner, min_fill, query_masks=query_masks, crash_hook=hook
        ),
        crash_hook,
    )


def atomic_reorganize(
    partitioner: "CinderellaPartitioner",
    config=None,
    query_masks: Optional[Sequence[int]] = None,
    order: str = "size",
    *,
    crash_hook: Optional[CrashHook] = None,
) -> ReorganizationReport:
    """Reorganize *in place*, atomically.

    The rebuild runs against a fresh scratch partitioner — a crash
    during it discards the scratch and leaves the live catalog
    untouched.  The live partitioner then adopts the rebuilt catalog in
    one swap, the operation's single point of no return.  The returned
    report's ``partitioner`` is the same object that was passed in.
    """

    def operation(hook: CrashHook) -> ReorganizationReport:
        report = reorganize(
            partitioner, config, query_masks, order, crash_hook=hook
        )
        hook("reorganize:swap")
        rebuilt = report.partitioner
        # the rebuilt catalog restarts pids from zero; re-stamp all its
        # partition versions past the replaced catalog's clock so no
        # result-cache entry keyed against the old catalog can collide
        rebuilt.catalog.adopt_version_clock(partitioner.catalog.version_clock)
        partitioner.config = rebuilt.config
        partitioner.catalog = rebuilt.catalog
        partitioner.split_count += rebuilt.split_count
        partitioner.ratings_computed += rebuilt.ratings_computed
        return ReorganizationReport(
            partitioner=partitioner,
            partitions_before=report.partitions_before,
            partitions_after=report.partitions_after,
            efficiency_before=report.efficiency_before,
            efficiency_after=report.efficiency_after,
        )

    return _run_atomic(partitioner, "reorganize", operation, crash_hook)
