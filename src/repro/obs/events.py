"""A bounded ring-buffer event log with dropped-event accounting.

Spans answer "where did the time go"; events answer "what happened" —
discrete occurrences worth keeping even when nobody was tracing a
request: a node crash injected by the chaos harness, a repair pass, a
quarantined ingest row, a transaction rollback.  The log is a fixed-size
ring: emission is O(1), memory is bounded, and when the buffer wraps the
oldest events are overwritten while ``dropped`` counts exactly how many
were lost — a reader can always tell whether it saw everything.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

#: events an :class:`EventLog` keeps before it overwrites the oldest
CAPACITY = 1024


@dataclass(frozen=True)
class Event:
    """One discrete occurrence."""

    #: position in the emission order (0-based, never reused)
    seq: int
    #: ``time.perf_counter()`` at emission — correlates with span times
    monotonic_s: float
    #: dotted event kind, e.g. ``server.shed`` or ``txn.rollback``
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"seq": self.seq, "kind": self.kind, "fields": dict(self.fields)}


class EventLog:
    """Ring of the last :data:`CAPACITY` :class:`Event` records.

    >>> log = EventLog()
    >>> for i in range(3):
    ...     _ = log.emit("tick", i=i)
    >>> [event.fields["i"] for event in log.events()], log.dropped
    ([0, 1, 2], 0)
    """

    def __init__(self) -> None:
        self._ring: deque[Event] = deque(maxlen=CAPACITY)
        self._emitted = 0

    def emit(self, kind: str, /, **fields: Any) -> Event:
        """Append one event, overwriting the oldest when full.

        ``kind`` is positional-only so instrumented code can carry a
        ``kind=...`` payload field (e.g. the txn operation kind).
        """
        event = Event(self._emitted, time.perf_counter(), kind, fields)
        self._ring.append(event)
        self._emitted += 1
        return event

    @property
    def emitted(self) -> int:
        """Events emitted over the log's lifetime."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events overwritten before anyone could read them."""
        return self._emitted - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> list[Event]:
        """Surviving events, oldest first."""
        return list(self._ring)

    def of_kind(self, kind: str) -> list[Event]:
        """Surviving events of one kind (or a ``prefix.`` family)."""
        if kind.endswith("."):
            return [e for e in self.events() if e.kind.startswith(kind)]
        return [e for e in self.events() if e.kind == kind]
