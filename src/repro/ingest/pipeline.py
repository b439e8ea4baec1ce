"""The hardened ingest pipeline: validate → admit → apply.

Sits in front of a partitioner (or a distributed store — any *sink*
with the ``insert``/``update``/``delete`` outcome contract) and turns
raw modification requests into admitted catalog operations:

* **validation** — every request is checked before it touches the
  catalog: entity ids must be non-negative integers, synopses must be
  non-empty and inside the declared attribute universe, SIZE(e) inputs
  must be non-negative, inserts must not reuse stored ids, and
  updates/deletes must address live (non-quarantined) entities.  Each
  failure is a typed :class:`~repro.ingest.errors.IngestError`.
* **quarantine** — failed requests are dead-lettered to a
  :class:`~repro.ingest.quarantine.QuarantineStore` (with the error
  attached) instead of being dropped or poisoning the catalog;
  :meth:`IngestPipeline.requeue` feeds repaired rows back in.
* **backpressure** — admission is bounded: when ``max_pending``
  requests are queued, further submissions get the explicit
  ``OVERLOADED`` outcome (nothing enqueued) until :meth:`process`
  drains the queue.
* **idempotent retry** — requests may carry a client-chosen ``op_id``;
  a request whose op id was already applied is acknowledged as
  ``REPLAYED`` without touching the catalog, so at-least-once senders
  cannot double-apply.
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.catalog.catalog import EntityNotFoundError
from repro.ingest.errors import (
    DuplicateEntityError,
    EmptySynopsisError,
    IngestError,
    InvalidEntityIdError,
    InvalidEntitySizeError,
    OverloadedError,
    QuarantinedEntityError,
    UnknownAttributeError,
    UnknownEntityError,
)
from repro.ingest.quarantine import QuarantineStore
from repro.obs import runtime as obs
from repro.obs.counters import RobustnessCounters

#: admission outcomes
QUEUED = "queued"
APPLIED = "applied"
REPLAYED = "replayed"
OVERLOADED = "overloaded"
QUARANTINED = "quarantined"
#: refused but not quarantinable (the entity id itself is unusable as a
#: dead-letter key)
REJECTED = "rejected"

_KINDS = ("insert", "update", "delete")


@dataclass(frozen=True)
class IngestRequest:
    """One raw modification request, as received from a client."""

    kind: str
    eid: Any
    mask: Optional[int] = None
    payload_bytes: Any = 0
    #: client-chosen idempotency key (avoid the journal's ``op-<n>``
    #: namespace); None opts out of replay detection
    op_id: Optional[str] = None


@dataclass(frozen=True)
class IngestResult:
    """What the pipeline decided about one request."""

    status: str
    request: IngestRequest
    error: Optional[IngestError] = None
    #: the sink's ModificationOutcome (APPLIED only)
    outcome: Any = None

    @property
    def accepted(self) -> bool:
        return self.status in (QUEUED, APPLIED, REPLAYED)


class IngestPipeline:
    """Bounded, validating, dead-lettering front door of a sink.

    Args:
        sink: object with ``insert(eid, mask, ...)``, ``update``,
            ``delete`` and a ``.catalog`` — a
            :class:`~repro.core.partitioner.CinderellaPartitioner` or a
            :class:`~repro.distributed.store.DistributedUniversalStore`.
        attribute_universe: optional synopsis mask of all declared
            attributes; requests setting bits outside it are refused
            with :class:`UnknownAttributeError`.
        max_pending: admission bound — the backpressure threshold.
        strict: raise the typed error instead of quarantining (the
            fail-fast mode used by tests and batch loaders that want
            the first bad row to abort the load).
    """

    def __init__(
        self,
        sink,
        *,
        attribute_universe: Optional[int] = None,
        max_pending: int = 256,
        quarantine: Optional[QuarantineStore] = None,
        counters: Optional[RobustnessCounters] = None,
        strict: bool = False,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.sink = sink
        self.attribute_universe = attribute_universe
        self.max_pending = max_pending
        self.quarantine = quarantine if quarantine is not None else QuarantineStore()
        if counters is None:
            # share the sink's counters when it keeps its own (the
            # distributed store does), so one dashboard sees both halves
            counters = getattr(sink, "robustness", None) or RobustnessCounters()
        self.counters = counters
        self.strict = strict
        self._pending: deque[IngestRequest] = deque()
        self._applied_op_ids: set[str] = set()
        self._pending_op_ids: set[str] = set()
        parameters = inspect.signature(sink.insert).parameters
        self._sink_takes_payload = "payload_bytes" in parameters
        self._sink_takes_op_id = "op_id" in parameters

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def submit(self, request: IngestRequest) -> IngestResult:
        """Validate and enqueue one request (the bounded front door)."""
        if request.op_id is not None and (
            request.op_id in self._applied_op_ids
            or request.op_id in self._pending_op_ids
        ):
            self.counters.ingest_replayed += 1
            return IngestResult(REPLAYED, request)
        if len(self._pending) >= self.max_pending:
            self.counters.ingest_overloaded += 1
            obs.event(
                "ingest.overloaded", kind=request.kind,
                pending=len(self._pending),
            )
            error = OverloadedError(
                f"ingest queue full ({self.max_pending} pending); back off "
                f"and resubmit"
            )
            if self.strict:
                raise error
            return IngestResult(OVERLOADED, request, error=error)
        try:
            self._validate(request)
        except IngestError as error:
            return self._refuse(request, error)
        self._pending.append(request)
        if request.op_id is not None:
            self._pending_op_ids.add(request.op_id)
        self.counters.observe_queue_depth(len(self._pending))
        return IngestResult(QUEUED, request)

    def process(self, limit: Optional[int] = None) -> list[IngestResult]:
        """Drain (up to *limit*) queued requests into the sink."""
        results: list[IngestResult] = []
        while self._pending and (limit is None or len(results) < limit):
            request = self._pending.popleft()
            if request.op_id is not None:
                self._pending_op_ids.discard(request.op_id)
            results.append(self._apply(request))
        return results

    def ingest(self, request: IngestRequest) -> IngestResult:
        """Submit and, if admitted, immediately apply one request."""
        result = self.submit(request)
        if result.status != QUEUED:
            return result
        return self.process(limit=1)[0]

    def load(self, rows: Iterable[tuple]) -> list[IngestResult]:
        """Bulk-insert ``(eid, mask)`` or ``(eid, mask, payload_bytes)``
        rows through full validation; one result per row, in order."""
        results = []
        for row in rows:
            eid, mask = row[0], row[1]
            payload_bytes = row[2] if len(row) > 2 else 0
            results.append(
                self.ingest(IngestRequest("insert", eid, mask, payload_bytes))
            )
        return results

    def requeue(self, eid: int) -> IngestResult:
        """Resubmit a (repaired) quarantined request.

        The entry is removed from quarantine first; if it fails again
        it lands back there with its attempt count incremented.
        """
        entry = self.quarantine.take(eid)
        self.counters.ingest_requeued += 1
        result = self.submit(entry.request)
        if result.status == OVERLOADED:
            # nothing was admitted — keep the entry dead-lettered
            self.quarantine.restore(entry)
        elif result.status == QUARANTINED:
            # failed again: carry the attempt history forward (take()
            # removed the entry, so add() restarted the count at 1)
            self.quarantine.get(eid).attempts = entry.attempts + 1
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _refuse(self, request: IngestRequest, error: IngestError) -> IngestResult:
        self.counters.ingest_rejected += 1
        if self.strict:
            raise error
        if isinstance(request.eid, int) and not isinstance(request.eid, bool):
            self.quarantine.add(request, error)
            self.counters.ingest_quarantined += 1
            obs.event(
                "ingest.quarantined", eid=request.eid, kind=request.kind,
                code=type(error).__name__,
            )
            return IngestResult(QUARANTINED, request, error=error)
        obs.event(
            "ingest.rejected", kind=request.kind, code=type(error).__name__
        )
        return IngestResult(REJECTED, request, error=error)

    def _validate(self, request: IngestRequest) -> None:
        if request.kind not in _KINDS:
            raise IngestError(f"unknown request kind {request.kind!r}")
        eid = request.eid
        if isinstance(eid, bool) or not isinstance(eid, int) or eid < 0:
            raise InvalidEntityIdError(
                f"entity id must be a non-negative integer, got {eid!r}"
            )
        if request.kind in ("update", "delete"):
            if eid in self.quarantine:
                raise QuarantinedEntityError(
                    f"entity {eid} is quarantined "
                    f"({self.quarantine.get(eid).code}); repair and requeue "
                    f"it before mutating"
                )
            if not self.sink.catalog.has_entity(eid):
                raise UnknownEntityError(f"entity {eid} is not stored")
        if request.kind == "insert":
            if self.sink.catalog.has_entity(eid) or any(
                queued.kind == "insert" and queued.eid == eid
                for queued in self._pending
            ):
                raise DuplicateEntityError(f"entity id {eid} already stored")
        if request.kind in ("insert", "update"):
            mask = request.mask
            if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0:
                raise EmptySynopsisError(
                    f"synopsis must be a non-negative integer mask, got {mask!r}"
                )
            if mask == 0:
                raise EmptySynopsisError(
                    f"entity {eid} has an empty synopsis; Cinderella cannot "
                    f"rate an entity without attributes"
                )
            if self.attribute_universe is not None and mask & ~self.attribute_universe:
                unknown = mask & ~self.attribute_universe
                raise UnknownAttributeError(
                    f"entity {eid} sets undeclared attribute bits {unknown:#x}"
                )
            size = request.payload_bytes
            if isinstance(size, bool) or not isinstance(size, (int, float)):
                raise InvalidEntitySizeError(
                    f"payload size must be a number, got {size!r}"
                )
            if size < 0:
                raise InvalidEntitySizeError(
                    f"entity {eid} has negative payload size {size}"
                )

    def _apply(self, request: IngestRequest) -> IngestResult:
        """Apply one admitted request to the sink."""
        with obs.span(
            "ingest.apply", kind=request.kind, eid=request.eid
        ) as span:
            result = self._apply_to_sink(request)
            if span.is_recording:
                span.set("status", result.status)
        return result

    def _apply_to_sink(self, request: IngestRequest) -> IngestResult:
        kwargs: dict[str, Any] = {}
        if self._sink_takes_op_id and request.op_id is not None:
            kwargs["op_id"] = request.op_id
        try:
            if request.kind == "insert":
                if self._sink_takes_payload:
                    kwargs["payload_bytes"] = int(request.payload_bytes)
                outcome = self.sink.insert(request.eid, request.mask, **kwargs)
            elif request.kind == "update":
                if self._sink_takes_payload:
                    kwargs["payload_bytes"] = int(request.payload_bytes)
                outcome = self.sink.update(request.eid, request.mask, **kwargs)
            else:
                outcome = self.sink.delete(request.eid, **kwargs)
        except IngestError as error:
            return self._refuse(request, error)
        except EntityNotFoundError as error:
            return self._refuse(
                request, UnknownEntityError(f"entity {request.eid}: {error}")
            )
        except ValueError as error:
            # the sink's own integrity refusals (e.g. duplicate ids that
            # raced past validation) are dead-lettered, not propagated
            return self._refuse(request, IngestError(str(error)))
        if request.op_id is not None:
            self._applied_op_ids.add(request.op_id)
        self.counters.ingest_accepted += 1
        return IngestResult(APPLIED, request, outcome=outcome)
