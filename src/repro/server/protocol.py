"""The wire protocol: one JSON object per line, UTF-8, ``\\n``-framed.

Every request is a JSON object with an ``op`` and a client-chosen
``id`` (echoed verbatim in the response, so a pipelining client can
match answers to questions).  Every response carries ``id``, ``ok``,
and a ``status`` string; failures add an ``error`` object with a typed
``code``.  Write outcomes are the server's admission vocabulary:
``applied`` / ``overloaded`` (shed by backpressure, retryable) /
``rejected`` (refused by validation).

Supported operations:

========== ============================================================
``ping``       liveness probe, echoes ``payload``
``insert``     ``{"attributes": {...}, "eid": optional int}``
``update``     ``{"eid": int, "attributes": {...}}``
``delete``     ``{"eid": int}``
``query``      ``{"attributes": [...], "mode": "any"|"all"}``
``sql``        ``{"sql": "SELECT ..."}`` — the SQL passthrough
``stats``      server/catalog/session statistics snapshot
``obs``        observability snapshot: the node's metric registry (JSON
               exposition) plus finished-trace / slow-op digests; the
               router federates these into the cluster view
``maintain``   admin: run one maintenance pass now; ``{"checkpoint":
               true}`` also forces a node checkpoint
``shutdown``   admin: drain and stop the server
========== ============================================================

A write's ``eid`` is an integer in ``[0, 2**70)`` (else ``rejected`` /
``invalid_entity_id``) and an attribute value is null, a bool, a 63-bit
integer, a float or a string (else ``rejected`` / ``bad_attributes``):
what a stored record can carry.  ``query`` and ``sql`` take an optional
``shard_filter`` — ``{"n_shards": int, "shards": [int]}``: answer only
for the entities of those shards (an entity's shard is its id modulo
``n_shards``) — which is how the router asks each node for its share of
a scatter; the node serves it from the same caches as an unscoped read.
A malformed one, like the sync ops' own ``n_shards``/``shards`` pair
below, is ``bad_request`` / ``bad_shard_spec``.

Any request may additionally carry a ``trace`` field — a W3C
traceparent string, ``00-<32 hex trace id>-<16 hex span id>-<2 hex
flags>`` — the distributed-trace context
(:class:`repro.obs.tracing.TraceContext`).  Receivers with trace
propagation enabled record their spans under it (the sender's
``span_id`` becomes the parent) and stamp fresh child contexts on any
upstream requests the op fans out to; everyone else ignores the field.
A malformed ``trace`` is dropped, never an error: telemetry must not
fail the request it rode in on.

Two further operations speak the replica-repair protocol between the
router and its serving nodes (clients may use them too — they are
ordinary requests — but the router drives them during resync):

``sync_snapshot``
    read a consistent page of a node's entities for a set of shards:
    ``{"n_shards": int, "shards": [int], "after_eid": int, "limit":
    int}``; with ``"count_only": true`` it returns just the entity
    count and an order-independent digest for end-of-resync agreement.
``sync_delta``
    bulk-apply copied entities on a resyncing node: ``{"entities":
    [{"eid", "attributes"}], "reset": {"n_shards", "shards"}?,
    "final": bool}``.  ``reset`` first clears the node's local copy of
    the named shards (the diverged state being replaced); ``final``
    asks the node to checkpoint so the resynced state is durable.

The framing is deliberately trivial — ``readline()`` on both ends — so
any language (or ``nc``) can speak it.  A line longer than
:data:`MAX_LINE_BYTES` is a protocol error: the server answers
``bad_request`` and closes, instead of buffering unboundedly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

#: framing bound — longer lines are refused, not buffered
MAX_LINE_BYTES = 1 << 20

#: response statuses
OK = "ok"
APPLIED = "applied"
ERROR = "error"
OVERLOADED = "overloaded"
REJECTED = "rejected"
BAD_REQUEST = "bad_request"
SHUTTING_DOWN = "shutting_down"
#: router tier: every replica of a needed shard is unreachable right now
NODE_UNAVAILABLE = "node_unavailable"
#: router tier: a partial result — some shards answered, some did not.
#: The response carries the rows that *were* gathered plus
#: ``unreachable_shards``.
DEGRADED = "degraded"

#: the operations a server understands (order = docs order)
OPS = (
    "ping", "insert", "update", "delete", "query", "sql", "stats", "obs",
    "maintain", "shutdown", "sync_snapshot", "sync_delta",
)

#: statuses a client should treat as success
SUCCESS_STATUSES = frozenset({OK, APPLIED})
#: statuses that mean "back off and retry later"
RETRYABLE_STATUSES = frozenset({OVERLOADED, NODE_UNAVAILABLE})
#: statuses carrying a usable but explicitly incomplete result
PARTIAL_STATUSES = frozenset({DEGRADED})


class ProtocolError(ValueError):
    """A malformed frame: not JSON, not an object, or not a known op."""


@dataclass(frozen=True)
class Request:
    """One decoded client request."""

    op: str
    id: int
    fields: dict[str, Any] = field(default_factory=dict)

    def get(self, name: str, default: Any = None) -> Any:
        return self.fields.get(name, default)


class Response:
    """One decoded server response.

    A reply whose ``rows`` array is its last member (every reply a node
    or the router builds; see :func:`decode_response`) keeps the array as
    the wire bytes it arrived as, in :attr:`rows_raw`, and decodes it on
    the first read of :attr:`fields` or ``get("rows")``.  A router
    forwards those bytes without decoding them.
    """

    __slots__ = ("id", "status", "error", "rows_raw", "_fields")

    def __init__(
        self,
        id: int,
        status: str,
        fields: Optional[dict[str, Any]] = None,
        error: Optional[dict[str, Any]] = None,
        rows_raw: Optional[bytes] = None,
    ) -> None:
        self.id = id
        self.status = status
        self.error = error
        #: the undecoded ``rows`` array (``b"[...]"``), or None when the
        #: reply carried no rows or they arrived decoded
        self.rows_raw = rows_raw
        self._fields = {} if fields is None else fields

    @property
    def fields(self) -> dict[str, Any]:
        """The payload fields, ``rows`` decoded on first access."""
        fields = self._fields
        if self.rows_raw is not None and "rows" not in fields:
            fields["rows"] = json.loads(self.rows_raw)
        return fields

    @property
    def ok(self) -> bool:
        return self.status in SUCCESS_STATUSES

    @property
    def retryable(self) -> bool:
        return self.status in RETRYABLE_STATUSES

    @property
    def degraded(self) -> bool:
        """True for a partial result (some shards unreachable)."""
        return self.status in PARTIAL_STATUSES

    def get(self, name: str, default: Any = None) -> Any:
        fields = self.fields if name == "rows" else self._fields
        return fields.get(name, default)

    def __repr__(self) -> str:
        return (
            f"Response(id={self.id!r}, status={self.status!r}, "
            f"fields={self.fields!r}, error={self.error!r})"
        )


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------
def encode_request(op: str, request_id: int, **fields: Any) -> bytes:
    """Serialize one request to its wire line (including the ``\\n``)."""
    document = {"op": op, "id": request_id, **fields}
    return json.dumps(document, separators=(",", ":")).encode() + b"\n"


def encode_response(
    request_id: int,
    status: str,
    error: Optional[dict[str, Any]] = None,
    **fields: Any,
) -> bytes:
    """Serialize one response to its wire line (including the ``\\n``)."""
    document: dict[str, Any] = {
        "id": request_id,
        "ok": status in SUCCESS_STATUSES,
        "status": status,
        **fields,
    }
    if error is not None:
        document["error"] = error
    return json.dumps(document, separators=(",", ":")).encode() + b"\n"


def error_body(code: str, message: str) -> dict[str, Any]:
    """The ``error`` object attached to failure responses."""
    return {"code": code, "message": message}


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------
def _check_length(line: bytes) -> None:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the {MAX_LINE_BYTES}-byte bound"
        )


def _decode_object(line: bytes) -> dict[str, Any]:
    _check_length(line)
    try:
        document = json.loads(line)
    except ValueError as err:
        raise ProtocolError(f"frame is not valid JSON: {err}") from None
    if not isinstance(document, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(document).__name__}"
        )
    return document


def decode_request(line: bytes) -> Request:
    """Parse one request line; raises :class:`ProtocolError` when malformed."""
    document = _decode_object(line)
    op = document.pop("op", None)
    if not isinstance(op, str):
        raise ProtocolError("request has no 'op' string")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (known: {', '.join(OPS)})")
    request_id = document.pop("id", 0)
    if isinstance(request_id, bool) or not isinstance(request_id, int):
        raise ProtocolError(f"request id must be an integer, got {request_id!r}")
    return Request(op=op, id=request_id, fields=document)


#: where a reply's trailing ``rows`` member starts (see decode_response)
_ROWS_MEMBER = b',"rows":['


def decode_response(line: bytes) -> Response:
    """Parse one response line; raises :class:`ProtocolError` when malformed.

    When ``rows`` is the reply's last member, only the header before it
    is decoded; the array is kept as bytes (:attr:`Response.rows_raw`)
    and decoded if someone reads it.  The split needs no look at the
    rows: ``,"rows":[`` cannot occur inside a JSON string (its quotes
    would be escaped), the header before the first occurrence decodes
    as an object only when that occurrence is a top-level member, and a
    header that holds ``row_count`` is the layout that puts rows last.
    Any other reply is decoded whole.
    """
    _check_length(line)
    body = line.rstrip()
    at = body.find(_ROWS_MEMBER)
    document: Any = None
    rows_raw = None
    if at > 0 and body.endswith(b"]}"):
        try:
            document = json.loads(body[:at] + b"}")
        except ValueError:
            pass
        if isinstance(document, dict) and "row_count" in document:
            rows_raw = body[at + len(_ROWS_MEMBER) - 1:-1]
        else:
            document = None
    if document is None:
        document = _decode_object(line)
    status = document.pop("status", None)
    if not isinstance(status, str):
        raise ProtocolError("response has no 'status' string")
    request_id = document.pop("id", 0)
    if isinstance(request_id, bool) or not isinstance(request_id, int):
        raise ProtocolError(f"response id must be an integer, got {request_id!r}")
    document.pop("ok", None)  # derived from status on re-decode
    error = document.pop("error", None)
    if error is not None and not isinstance(error, dict):
        raise ProtocolError(f"response error must be an object, got {error!r}")
    return Response(
        id=request_id, status=status, fields=document, error=error,
        rows_raw=rows_raw,
    )
