"""The closed-loop load generator for the networked workloads.

One thread per TCP connection; each keeps up to ``window`` requests in
flight and sends the next one only when a response has been read, so a
slower program receives less load.  Wire lines are encoded before the
clock starts.  A latency is send → response line read, so it includes
the wait behind the connection's own earlier requests.  The measured
interval is cut into segments with a drained pause between them, in
which the caller samples the machine's speed (see ``calibrate.py``).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from streams import QUERY, Stream

#: every Nth response is parsed and checked structurally during the run
SAMPLE_EVERY = 64
#: connections the set-up preload uses (full group-commit batches; this
#: is set-up, not the measured load shape)
PRELOAD_CONNECTIONS = 32
_SOCKET_TIMEOUT_S = 60.0


@dataclass
class ConnResult:
    """What one connection measured."""

    #: seconds per completed op, in stream order
    latencies: list[float] = field(default_factory=list)
    #: when each op was sent (``time.perf_counter`` readings)
    sent_at: list[float] = field(default_factory=list)
    #: stream positions answered non-ok or structurally wrong
    failed: list[int] = field(default_factory=list)
    response_bytes: int = 0
    #: ``(started, drained, first op, op after the last)`` of each segment
    segments: list[tuple[float, float, int, int]] = field(default_factory=list)
    #: every op of the stream has been sent (and answered)
    exhausted: bool = False
    error: Optional[BaseException] = None


def connect(address: tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=_SOCKET_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def response_problem(stream: Stream, position: int, line: bytes, shapes) -> Optional[str]:
    """Structural check of one sampled response (``None`` when sound)."""
    kind, key, _attributes = stream.ops[position]
    try:
        document = json.loads(line)
    except ValueError as err:
        return f"response is not JSON: {err}"
    sent_id = json.loads(stream.payloads[position])["id"]
    if document.get("id") != sent_id:
        return f"id {document.get('id')!r} does not echo {sent_id}"
    if kind == QUERY:
        rows = document.get("rows")
        if document.get("status") != "ok" or not isinstance(rows, list):
            return f"query answered {document.get('status')!r}"
        if document.get("row_count") != len(rows):
            return f"row_count {document.get('row_count')} but {len(rows)} rows"
        names = set(shapes[key].attributes)
        if any(set(row) != names for row in rows):
            return "row not projected to the queried attributes"
        return None
    if document.get("status") != "applied" or document.get("eid") != key:
        return f"{kind} of {key} answered {document.get('status')!r}"
    return None


class _Pauses:
    """The rendezvous of the connection threads between two segments."""

    def __init__(
        self, results: Sequence[ConnResult], cutoff_s: Optional[float],
        on_pause: Optional[Callable[[], None]],
    ) -> None:
        self.results = results
        self.cutoff_s = cutoff_s
        self.on_pause = on_pause
        self.started: Optional[float] = None
        self.stop = False
        self.barrier = threading.Barrier(len(results), action=self._paused)

    def _paused(self) -> None:
        # runs in one thread while every other one waits at the barrier
        if self.on_pause is not None:
            self.on_pause()
        now = time.perf_counter()
        if self.started is None:
            self.started = now
        self.stop = all(result.exhausted for result in self.results) or (
            self.cutoff_s is not None and now - self.started >= self.cutoff_s
        )


def _drive(
    address: tuple[str, int],
    stream: Stream,
    shapes,
    window: int,
    limit: int,
    segment_s: float,
    pauses: _Pauses,
    result: ConnResult,
) -> None:
    payloads = stream.payloads
    latencies = result.latencies
    sent_at = result.sent_at
    inflight: deque[float] = deque()
    clock = time.perf_counter
    barrier = pauses.barrier
    try:
        sock = connect(address)
    except OSError as err:
        result.error = err
        barrier.abort()
        return
    try:
        reader = sock.makefile("rb")
        sent = done = 0
        while True:
            result.exhausted = sent >= limit
            barrier.wait()  # the pause: every connection is drained here
            if pauses.stop:
                break
            started = clock()
            deadline = started + segment_s
            first = done
            while True:
                while sent < limit and len(inflight) < window and clock() < deadline:
                    now = clock()
                    inflight.append(now)
                    sent_at.append(now)
                    sock.sendall(payloads[sent])
                    sent += 1
                if not inflight:
                    break
                line = reader.readline()
                received = clock()
                if not line:
                    raise ConnectionError("the program closed the connection")
                latencies.append(received - inflight.popleft())
                result.response_bytes += len(line)
                if b'"ok":true' not in line[:48]:
                    result.failed.append(done)
                elif done % SAMPLE_EVERY == 0 and response_problem(
                    stream, done, line, shapes
                ):
                    result.failed.append(done)
                done += 1
            result.segments.append((started, clock(), first, done))
    except (OSError, threading.BrokenBarrierError) as err:
        result.error = err
        barrier.abort()
    finally:
        sock.close()


def run_closed_loop(
    address: tuple[str, int],
    streams: Sequence[Stream],
    shapes,
    window: int,
    segment_s: float,
    cutoff_s: Optional[float] = None,
    limit: Optional[int] = None,
    on_pause: Optional[Callable[[], None]] = None,
) -> list[ConnResult]:
    """Drive every stream on its own connection until it (or *limit* ops
    of it) has been answered, in segments of *segment_s* seconds.

    At the end of a segment a connection stops sending and reads what is
    still in flight.  Before the first segment, between two, and after
    the last, every connection is drained and *on_pause* runs once, with
    the program idle.  No segment starts later than *cutoff_s* seconds
    after the first: a program much slower than the streams were sized
    for is cut short rather than measured for as long as it takes.
    """
    results = [ConnResult() for _ in streams]
    pauses = _Pauses(results, cutoff_s, on_pause)
    threads = [
        threading.Thread(
            target=_drive,
            args=(
                address, stream, shapes, window,
                len(stream) if limit is None else min(limit, len(stream)),
                segment_s, pauses, result,
            ),
        )
        for stream, result in zip(streams, results)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def preload(address: tuple[str, int], payloads: Sequence[bytes]) -> None:
    """Load the set-up entities over the wire, in lockstep rounds over
    :data:`PRELOAD_CONNECTIONS` connections.

    A round can outrun the node's adaptive admission window; a write
    shed as ``overloaded`` is resubmitted in a later round, as the
    protocol asks.  Any other refusal raises.
    """
    pending = deque(payloads)
    socks = [connect(address) for _ in range(min(PRELOAD_CONNECTIONS, len(pending)))]
    try:
        readers = [sock.makefile("rb") for sock in socks]
        while pending:
            batch = [pending.popleft() for _ in range(min(len(socks), len(pending)))]
            for sock, payload in zip(socks, batch):
                sock.sendall(payload)
            for reader, payload in zip(readers, batch):
                line = reader.readline()
                if b'"ok":true' in line[:48]:
                    continue
                if b'"status":"overloaded"' not in line[:80]:
                    raise RuntimeError(f"preload write refused: {line[:200]!r}")
                pending.append(payload)
    finally:
        for sock in socks:
            sock.close()
