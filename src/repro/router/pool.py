"""Per-node upstream connections: pipelined channels.

The router talks to every serving node over *channels*
(:class:`Channel`): one TCP connection each, on which any number of
requests may be in flight at once, exactly like a pipelining client
(:meth:`repro.server.client.ServerClient.pipeline`).  A node answers a
connection in request order, so a channel is a FIFO:

* :meth:`Channel.send` queues the frame and returns a future of the
  reply; every frame sent on a channel during one turn of the event loop
  leaves in one write at the end of that turn (or the moment the
  connection opens, while it is still dialing), in the order sent — a
  scatter or a burst of routed writes costs each node one ``send``
  syscall, not one per frame;
* one reader task per channel resolves the futures first-in first-out,
  checking each reply's id against its request's; a reply's ``rows``
  stay the bytes the node rendered (:func:`~repro.server.protocol.decode_response`),
  which the router's merge splices without decoding them;
* *any* failure — connect refused, EOF mid-exchange, an oversized or
  malformed reply, a reply id out of order, or an exchange unanswered
  ``timeout_s`` after it reached the head of the queue — drops the
  frames not yet written and fails every in-flight exchange with
  :class:`UpstreamError`, the single exception
  type the router's failover logic catches, and poisons the channel: a
  node that answers garbage is handled exactly like a node that does
  not answer at all.

Each client session of the router owns one channel per node
(:meth:`NodePool.channel`), closed once the session's requests have
settled, and so do a resync and each admin fan-out for as long as they
run; the pool's one-shot :meth:`NodePool.request` (the reads and writes
the front door serves as barriers, retries, catch-up replay) runs on
one channel the pool owns itself and redials when that one broke.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Optional

from repro.server import protocol
from repro.server.protocol import ProtocolError, Response
from repro.router.placement import NodeAddress


class UpstreamError(ConnectionError):
    """Talking to one upstream node failed (transport or framing)."""

    def __init__(self, node: str, reason: str) -> None:
        super().__init__(f"upstream {node}: {reason}")
        self.node = node
        self.reason = reason
        #: set once the node's breaker has counted this failure: every
        #: exchange of a poisoned channel fails with the same error, and
        #: they are one failed connection, not many
        self.counted = False


class Channel:
    """One pipelined upstream connection (see the module docstring)."""

    def __init__(self, pool: "NodePool") -> None:
        self._pool = pool
        self._loop = asyncio.get_running_loop()
        self._writer: Optional[asyncio.StreamWriter] = None
        #: frames sent but not yet written, in send order: those of the
        #: current loop turn, or all of them while the channel dials
        self._backlog: list[bytes] = []
        #: the end-of-turn write of the backlog, while one is scheduled
        self._flush_handle: Optional[asyncio.Handle] = None
        #: in-flight exchanges, oldest first: (request id, reply future)
        self._pending: deque[tuple[int, asyncio.Future]] = deque()
        #: when the oldest in-flight exchange reached the head
        self._head_since = 0.0
        self._timer: Optional[asyncio.TimerHandle] = None
        self._task: Optional[asyncio.Task] = None
        #: why the channel is poisoned (None while usable)
        self.broken: Optional[UpstreamError] = None

    def send(self, op: str, fields: dict[str, Any]) -> asyncio.Future:
        """Send one request (written at the end of this loop turn); the
        future resolves to its reply or fails with :class:`UpstreamError`."""
        future = self._loop.create_future()
        if self._writer is not None and self._writer.transport.is_closing():
            # the peer is gone and the reader task has not woken yet
            self._fail("connection closed")
        if self.broken is not None:
            future.set_exception(self.broken)
            return future
        pool = self._pool
        pool._next_id += 1
        frame = protocol.encode_request(op, pool._next_id, **fields)
        if not self._pending:
            self._head_since = self._loop.time()
        self._pending.append((pool._next_id, future))
        self._backlog.append(frame)
        if self._writer is None:
            if self._task is None:
                self._task = self._loop.create_task(self._run())
        elif self._flush_handle is None:
            self._flush_handle = self._loop.call_soon(self._flush)
        if self._timer is None:
            self._arm()
        return future

    # ------------------------------------------------------------------
    # the reader task: dial, flush the backlog, resolve replies in order
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        pool = self._pool
        name = pool.address.name
        try:
            reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(
                    pool.address.host, pool.address.port,
                    limit=protocol.MAX_LINE_BYTES,
                ),
                timeout=pool.timeout_s,
            )
        except (OSError, asyncio.TimeoutError) as err:
            self._fail(f"connect failed: {err or type(err).__name__}")
            return
        pool.dials += 1
        self._flush()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    raise UpstreamError(name, "oversized response frame") from None
                if not line:
                    raise UpstreamError(
                        name,
                        "connection closed mid-exchange" if self._pending
                        else "connection closed",
                    )
                try:
                    response = protocol.decode_response(line)
                except ProtocolError as err:
                    raise UpstreamError(name, f"malformed response: {err}") from None
                if not self._pending:
                    raise UpstreamError(name, f"unsolicited response {response.id}")
                request_id, future = self._pending.popleft()
                if response.id not in (request_id, 0):
                    raise UpstreamError(
                        name, f"response id {response.id} for request {request_id}",
                    )
                self._head_since = self._loop.time()
                pool.exchanges += 1
                if not future.done():
                    future.set_result(response)
        except UpstreamError as err:
            self._fail(err)
        except OSError as err:
            self._fail(f"exchange failed: {err or type(err).__name__}")

    def _flush(self) -> None:
        """Write every frame sent so far, in one write."""
        self._flush_handle = None
        if not self._backlog or self.broken is not None:
            return
        if self._writer.transport.is_closing():
            self._fail("connection closed")
            return
        self._writer.write(b"".join(self._backlog))
        self._backlog.clear()

    # ------------------------------------------------------------------
    # the exchange deadline: one timer, re-armed for the current head
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        self._timer = self._loop.call_at(
            self._head_since + self._pool.timeout_s, self._check_deadline
        )

    def _check_deadline(self) -> None:
        self._timer = None
        if not self._pending or self.broken is not None:
            return
        if self._loop.time() >= self._head_since + self._pool.timeout_s:
            self._fail("exchange timed out")
        else:
            self._arm()

    # ------------------------------------------------------------------
    # poisoning
    # ------------------------------------------------------------------
    def _fail(self, reason: "str | UpstreamError") -> None:
        """Poison the channel and fail every in-flight exchange."""
        if self.broken is None:
            self.broken = (
                reason if isinstance(reason, UpstreamError)
                else UpstreamError(self._pool.address.name, reason)
            )
        self._backlog.clear()
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        while self._pending:
            _request_id, future = self._pending.popleft()
            if not future.done():
                future.set_exception(self.broken)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass  # already dead; nothing to release
        if (
            self._task is not None and not self._task.done()
            and self._task is not asyncio.current_task()
        ):
            self._task.cancel()
        self._pool._channels.discard(self)

    def close(self) -> None:
        """Close the channel; exchanges still in flight fail."""
        self._fail("channel closed")


class NodePool:
    """Pipelined channels to one serving node."""

    def __init__(self, address: NodeAddress, timeout_s: float = 2.0) -> None:
        self.address = address
        self.timeout_s = timeout_s
        self._next_id = 0
        self._channels: set[Channel] = set()
        #: the channel behind the one-shot :meth:`request`
        #: (barrier reads and writes, retries, catch-up replay)
        self._shared: Optional[Channel] = None
        #: exchanges completed / connections dialed (stats)
        self.exchanges = 0
        self.dials = 0

    def channel(self) -> Channel:
        """A new channel; it dials on its first :meth:`Channel.send`."""
        channel = Channel(self)
        self._channels.add(channel)
        return channel

    async def request(self, op: str, **fields: Any) -> Response:
        """One request/response exchange on the pool's own channel;
        raises :class:`UpstreamError` on any transport or framing failure."""
        channel = self._shared
        if channel is None or channel.broken is not None:
            channel = self._shared = self.channel()
        return await channel.send(op, fields)

    def close(self) -> None:
        """Close every channel (their in-flight exchanges fail)."""
        for channel in list(self._channels):
            channel.close()
        self._shared = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "node": self.address.name,
            "channels": len(self._channels),
            "dials": self.dials,
            "exchanges": self.exchanges,
        }
