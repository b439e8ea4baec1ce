"""A small blocking client for the serving layer.

Used by the test batteries, the soak suite, and the load generator in
``benchmarks/bench_server.py`` — each worker thread owns one
:class:`ServerClient` (one TCP connection, one session on the server)
and drives it synchronously.  The client is deliberately plain sockets
so it exercises the real wire protocol rather than any asyncio
internals the server happens to share.

>>> with ServerClient(host, port) as client:          # doctest: +SKIP
...     client.insert({"name": "Canon S120", "resolution": 12.1})
...     rows = client.query(["resolution"])
...     acks = client.pipeline(                      # one burst, few commits
...         ("insert", {"attributes": {"resolution": r}}) for r in (8, 10, 16)
...     )
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Iterable, Optional

from repro.obs.runtime import wire_trace
from repro.server.protocol import (
    MAX_LINE_BYTES,
    Response,
    decode_response,
    encode_request,
)


class ServerError(RuntimeError):
    """A response the caller asked to be raised (non-ok, non-retryable)."""

    def __init__(self, response: Response) -> None:
        error = response.error or {}
        super().__init__(
            f"{response.status}: "
            f"[{error.get('code', '?')}] {error.get('message', 'no message')}"
        )
        self.response = response
        self.status = response.status
        self.code = error.get("code")


class ServerClient:
    """One blocking connection speaking the line-delimited JSON protocol.

    Args:
        host, port: where the server listens.
        timeout: per-request socket timeout in seconds.
        check: when True (default) non-ok responses raise
            :class:`ServerError`; when False they are returned like any
            other response, which is what retry loops and the shed-rate
            measurement want.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        check: bool = True,
    ) -> None:
        self.check = check
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._next_id = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _frame(self, op: str, fields: dict[str, Any]) -> tuple[int, bytes]:
        """The next request id and the wire line carrying it.

        With trace propagation enabled (``obs.enable(propagate=True)``)
        every frame is stamped with a ``trace`` context — the current
        span's position when the caller is inside one, else a fresh
        trace rooted at this request — so the receiving tier's spans
        correlate back to this call site.  Disabled, this is one global
        read.
        """
        self._next_id += 1
        if "trace" not in fields:
            trace = wire_trace()
            if trace is not None:
                fields = {**fields, "trace": trace}
        return self._next_id, encode_request(op, self._next_id, **fields)

    def _read_response(self, request_id: int) -> Response:
        line = self._file.readline(MAX_LINE_BYTES + 2)
        if not line:
            raise ConnectionError("server closed the connection")
        response = decode_response(line)
        if response.id not in (request_id, 0):
            raise ConnectionError(
                f"response id {response.id} does not match request "
                f"id {request_id}"
            )
        return response

    def request(self, op: str, **fields: Any) -> Response:
        """Send one request and block for its response."""
        request_id, frame = self._frame(op, fields)
        self._sock.sendall(frame)
        response = self._read_response(request_id)
        if self.check and not response.ok and not response.degraded:
            # degraded responses carry a usable partial result; raising
            # would throw away the rows the router did gather
            raise ServerError(response)
        return response

    def pipeline(
        self, requests: Iterable[tuple[str, dict[str, Any]]]
    ) -> list[Response]:
        """Send ``(op, fields)`` requests as one burst, then read as
        many responses.

        The server answers a connection in request order and lets its
        consecutive writes share group commits, so a burst costs a few
        commits where as many :meth:`request` calls cost one round trip
        and one commit each.  Every response is returned, ok or not —
        ``check`` does not apply: a refusal in the middle of a burst
        must not hide the answers behind it.  The whole burst is written
        before anything is read, so keep it within what the socket
        buffers hold (thousands of small requests, not megabytes).
        """
        frames = [self._frame(op, fields) for op, fields in requests]
        self._sock.sendall(b"".join(frame for _id, frame in frames))
        return [self._read_response(request_id) for request_id, _ in frames]

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def ping(self, payload: Any = None) -> Response:
        return self.request("ping", payload=payload)

    def insert(
        self, attributes: dict[str, Any], eid: Optional[int] = None
    ) -> Response:
        fields: dict[str, Any] = {"attributes": attributes}
        if eid is not None:
            fields["eid"] = eid
        return self.request("insert", **fields)

    def update(self, eid: int, attributes: dict[str, Any]) -> Response:
        return self.request("update", eid=eid, attributes=attributes)

    def delete(self, eid: int) -> Response:
        return self.request("delete", eid=eid)

    def query(
        self, attributes: Iterable[str], mode: str = "any"
    ) -> list[dict[str, Any]]:
        response = self.request(
            "query", attributes=list(attributes), mode=mode
        )
        if not response.ok and not response.degraded:
            return []  # check=False: shed/refused → no rows
        return response.get("rows", [])

    def query_response(
        self, attributes: Iterable[str], mode: str = "any"
    ) -> Response:
        """Like :meth:`query` but returns the full response (stats etc.)."""
        return self.request("query", attributes=list(attributes), mode=mode)

    def sql(self, text: str) -> Response:
        return self.request("sql", sql=text)

    def stats(self) -> dict[str, Any]:
        return self.request("stats").fields

    def obs(self) -> dict[str, Any]:
        """The observability snapshot (per-node, or federated from a
        router — see ``docs/OBSERVABILITY.md``)."""
        return self.request("obs").fields

    def maintain(self, checkpoint: bool = False) -> Response:
        if checkpoint:
            return self.request("maintain", checkpoint=True)
        return self.request("maintain")

    def shutdown(self) -> Response:
        return self.request("shutdown")

    # ------------------------------------------------------------------
    # retry wrapper (the backpressure contract from the client's side)
    # ------------------------------------------------------------------
    def retrying(
        self,
        op: str,
        *,
        attempts: int = 8,
        base_delay_s: float = 0.005,
        max_delay_s: float = 0.25,
        budget_s: float = 30.0,
        rng: Optional[random.Random] = None,
        **fields: Any,
    ) -> Response:
        """Issue *op*, retrying every retryable status with backoff.

        The uniform client half of the backpressure/failover contract:
        any response whose status is retryable (``overloaded`` shedding,
        ``node_unavailable`` from the router while a shard has no
        reachable replica) is retried with jittered exponential backoff
        — delay ``min(max_delay_s, base_delay_s * 2^(attempt-1))``
        scaled by a uniform factor in ``[0.5, 1.0)`` so synchronized
        clients do not stampede in lockstep — until it succeeds, the
        attempt budget runs out, or ``budget_s`` of wall time has been
        spent (the retry budget: a client stuck behind a long outage
        gives up loudly instead of spinning forever).

        Returns the final response, which may still be retryable when
        every attempt bounced; ``check`` raising is suspended during the
        retries and re-applied (retryable and degraded statuses exempt)
        to the final response.
        """
        if rng is None:
            rng = random
        check_before = self.check
        self.check = False
        deadline = time.monotonic() + budget_s
        try:
            response = self.request(op, **fields)
            attempt = 1
            while response.retryable and attempt < attempts:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                delay = min(max_delay_s, base_delay_s * (2 ** (attempt - 1)))
                delay *= 0.5 + rng.random() * 0.5
                time.sleep(min(delay, remaining))
                response = self.request(op, **fields)
                attempt += 1
        finally:
            self.check = check_before
        if (
            self.check and not response.ok
            and not response.retryable and not response.degraded
        ):
            raise ServerError(response)
        return response
