"""Per-node upstream connections: a small asyncio pool.

The router keeps a handful of warm connections to every serving node
(opening a TCP connection per proxied request would double the wire
latency the tier is supposed to hide).  The pool is deliberately
minimal:

* :meth:`NodePool.request` borrows an idle connection — or dials a new
  one — sends one frame, awaits one response line, and returns the
  connection to the idle stack;
* *any* failure (connect refused, timeout, EOF mid-frame, an oversized
  or malformed response line) closes that connection and raises
  :class:`UpstreamError` — the single exception type the router's
  failover logic catches.  A node that answers garbage is handled
  exactly like a node that does not answer at all: the connection is
  poisoned, the breaker records a failure, the next replica is tried.

Timeouts are per exchange (``timeout_s`` covers connect, send, and the
response read separately), so one hung node costs the fan-out at most
one timeout, not a compounding stack of them.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.server import protocol
from repro.server.protocol import ProtocolError, Response
from repro.router.placement import NodeAddress

#: idle connections kept warm per node
_MAX_IDLE = 2


class UpstreamError(ConnectionError):
    """Talking to one upstream node failed (transport or framing)."""

    def __init__(self, node: str, reason: str) -> None:
        super().__init__(f"upstream {node}: {reason}")
        self.node = node
        self.reason = reason


class _Conn:
    """One open upstream connection."""

    __slots__ = ("reader", "writer")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:
            pass  # already dead; nothing to release


class NodePool:
    """Pooled request/response exchanges with one serving node."""

    def __init__(self, address: NodeAddress, timeout_s: float = 2.0) -> None:
        self.address = address
        self.timeout_s = timeout_s
        self._idle: list[_Conn] = []
        self._next_id = 0
        #: exchanges completed / connections dialed (stats)
        self.exchanges = 0
        self.dials = 0

    async def _checkout(self) -> _Conn:
        if self._idle:
            return self._idle.pop()
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(
                    self.address.host, self.address.port,
                    limit=protocol.MAX_LINE_BYTES,
                ),
                timeout=self.timeout_s,
            )
        except (OSError, asyncio.TimeoutError) as err:
            raise UpstreamError(
                self.address.name, f"connect failed: {err or type(err).__name__}"
            ) from None
        self.dials += 1
        return _Conn(reader, writer)

    async def request(self, op: str, **fields: Any) -> Response:
        """One request/response exchange; raises :class:`UpstreamError`
        on any transport or framing failure."""
        conn = await self._checkout()
        self._next_id += 1
        request_id = self._next_id
        try:
            conn.writer.write(protocol.encode_request(op, request_id, **fields))
            await asyncio.wait_for(conn.writer.drain(), timeout=self.timeout_s)
            try:
                line = await asyncio.wait_for(
                    conn.reader.readline(), timeout=self.timeout_s
                )
            except (asyncio.LimitOverrunError, ValueError):
                raise UpstreamError(
                    self.address.name, "oversized response frame"
                ) from None
            if not line:
                raise UpstreamError(
                    self.address.name, "connection closed mid-exchange"
                )
            try:
                response = protocol.decode_response(line)
            except ProtocolError as err:
                raise UpstreamError(
                    self.address.name, f"malformed response: {err}"
                ) from None
            if response.id not in (request_id, 0):
                raise UpstreamError(
                    self.address.name,
                    f"response id {response.id} for request {request_id}",
                )
        except UpstreamError:
            conn.close()
            raise
        except (OSError, asyncio.TimeoutError) as err:
            conn.close()
            raise UpstreamError(
                self.address.name, f"exchange failed: {err or type(err).__name__}"
            ) from None
        self.exchanges += 1
        if len(self._idle) < _MAX_IDLE:
            self._idle.append(conn)
        else:
            conn.close()
        return response

    def close(self) -> None:
        """Drop every idle connection (in-flight exchanges self-close)."""
        while self._idle:
            self._idle.pop().close()

    def as_dict(self) -> dict[str, Any]:
        return {
            "node": self.address.name,
            "idle": len(self._idle),
            "dials": self.dials,
            "exchanges": self.exchanges,
        }
