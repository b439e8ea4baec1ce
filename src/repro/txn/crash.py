"""Mid-operation crash injection for the fault-injection matrices."""

from __future__ import annotations

from typing import Optional


class MidOperationCrash(RuntimeError):
    """Simulated process death in the middle of a multi-step operation.

    Raised by a :class:`CrashInjector` at a chosen step index inside a
    multi-step operation (split, merge, reorganize, node checkpoint).
    The transactional operation layer treats it like any other failure:
    roll back to the exact pre-operation state.
    """


class CrashInjector:
    """Crash a multi-step operation at one exact step index.

    Step indices are deterministic — the same operation on the same
    catalog always walks the same step sequence — so a crash matrix
    runs the operation once with ``crash_at=None`` to count the steps,
    then once per index.

    >>> injector = CrashInjector(crash_at=1)
    >>> injector.reached("merge:move")
    >>> injector.reached("merge:drop")
    Traceback (most recent call last):
        ...
    repro.txn.crash.MidOperationCrash: injected crash at step 1 (merge:drop)
    """

    def __init__(self, crash_at: Optional[int] = None) -> None:
        self.crash_at = crash_at
        self.steps_seen = 0
        self.labels: list[str] = []

    def reached(self, label: str) -> None:
        """Mark one step boundary; crash if it is the chosen one."""
        index = self.steps_seen
        self.steps_seen += 1
        self.labels.append(label)
        if self.crash_at is not None and index == self.crash_at:
            raise MidOperationCrash(f"injected crash at step {index} ({label})")
