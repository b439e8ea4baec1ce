"""The front door both serving tiers share: one TCP shell.

A serving node (:class:`~repro.server.server.CinderellaServer`) and the
router (:class:`~repro.router.router.CinderellaRouter`) speak the same
protocol, and everything between the socket and a tier's own request
handling is one :class:`FrontDoor`: the listener, the :class:`Session`
registry, framing and trace adoption, the one refusal type
(:class:`Refused`), request accounting, the bounded drain with its
typed force-close — and the one connection loop.  ``docs/SERVER.md``
("The front door") describes it once for both tiers.

The connection loop reads frames as they arrive and asks the tier's
``_dispatch`` about each decoded request.  A dispatched request (a
node's queued write, a router's pipelined read or write) completes
while the loop reads on; one the tier did not dispatch is a *barrier*:
the loop waits for the session's earlier requests, pauses reading and
serves it alone.  Answers leave in request order, every ready one in
one write, and a session owes at most the tier's ``inflight`` bound —
TCP back-pressure holds the rest of a burst.  The two tiers differ only
in their dispatch rule.

Spans and the event loop: the tracer's span stack is per *thread*, so a
span held across an ``await`` would mis-parent the spans of interleaved
tasks; request latency goes straight into a histogram, and the tier's
hop span is recorded after the fact.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional, Union

from repro.obs import runtime as obs
from repro.obs.registry import SERVER_LATENCY_BUCKETS
from repro.obs.tracing import TraceContext
from repro.server import protocol
from repro.server.protocol import ProtocolError, Request


class Tier(NamedTuple):
    """How one tier's front door names itself to the outside."""

    #: event prefix: ``<events>.connect``, ``<events>.stopped``, ...
    events: str
    #: the tier's hop in a distributed trace: span ``<hop>.request``,
    #: with the tier's name under the attribute ``<hop>``
    hop: str
    #: request latency histogram, labeled ``op``: (metric, help)
    request_seconds: tuple[str, str]
    #: requests counter, labeled ``op`` and ``status``: (metric, help)
    requests_total: tuple[str, str]


#: graceful-drain bound of both tiers: seconds after which
#: :meth:`FrontDoor.stop` gives up waiting on queued work and stalled
#: connections and force-closes whatever survives
DRAIN_DEADLINE_S = 5.0

#: one unanswered request: the request, the clock reading its latency
#: counts from and the future of its outcome — or, for a frame that is
#: no request, ``(None, 0.0, future of its wire line)``
Owed = tuple[Optional[Request], float, asyncio.Future]


@dataclass
class Session:
    """Per-connection bookkeeping."""

    sid: int
    peer: str
    opened_monotonic: float
    requests: int = 0
    errors: int = 0
    ops: dict[str, int] = field(default_factory=dict)
    closing: bool = False
    #: the session's unanswered requests, oldest first
    owed: deque[Owed] = field(default_factory=deque)

    def observe(self, op: str, ok: bool) -> None:
        self.requests += 1
        self.ops[op] = self.ops.get(op, 0) + 1
        if not ok:
            self.errors += 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "sid": self.sid,
            "peer": self.peer,
            "age_s": round(time.monotonic() - self.opened_monotonic, 3),
            "requests": self.requests,
            "errors": self.errors,
            "ops": dict(self.ops),
        }


class Refused(Exception):
    """A request answered with a non-ok status (no traceback)."""

    def __init__(self, status: str, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


class Raw:
    """A pre-serialized response: everything of the wire line after the
    request id, which the accounting splices ``{"id":N`` in front of
    instead of re-encoding the payload through ``json.dumps``."""

    __slots__ = ("status", "fragment")

    def __init__(self, status: str, fragment: bytes) -> None:
        self.status = status
        self.fragment = fragment


#: a handler's answer: status, payload fields, optional error body
Answer = tuple[str, dict[str, Any], Optional[dict[str, Any]]]
Outcome = Union[Raw, Refused, Answer]

_FRAME_TOO_LONG = protocol.encode_response(
    0, protocol.BAD_REQUEST,
    error=protocol.error_body(
        "frame_too_long", f"frame exceeds {protocol.MAX_LINE_BYTES} bytes",
    ),
)
_FORCE_CLOSED = protocol.encode_response(
    0, protocol.SHUTTING_DOWN,
    error=protocol.error_body(
        "drain_deadline", "connection force-closed at the drain deadline",
    ),
)


def as_refusal(err: Exception) -> Refused:
    """How a failed request is answered: a refusal as itself, anything
    else (a handler bug) as ``error/internal``."""
    if isinstance(err, Refused):
        return err
    return Refused(protocol.ERROR, "internal", f"{type(err).__name__}: {err}")


def _outcome(answer: asyncio.Future) -> Outcome:
    """What a completed answer says; a failure is answered as a refusal."""
    try:
        return answer.result()
    except Exception as err:
        return as_refusal(err)


def _ready(value: Any) -> asyncio.Future:
    """An answer already known, as an entry of a session's FIFO."""
    future = asyncio.get_running_loop().create_future()
    future.set_result(value)
    return future


def request_trace_context(request: Request) -> Optional[TraceContext]:
    """The adopted trace context :meth:`FrontDoor._decode` stashed on the
    request (the isinstance check also drops a wire-supplied impostor)."""
    context = request.fields.get("_trace_context")
    return context if isinstance(context, TraceContext) else None


class FrontDoor:
    """The TCP shell of one serving tier (see the module docstring).

    *config* carries ``host``, ``port`` and ``name``; *counters*
    carries ``connections_opened``, ``connections_closed``,
    ``connections_force_closed``, ``requests_total``,
    ``requests_failed`` and ``bad_requests``;
    *inflight* bounds the requests one session may owe answers to.

    A tier supplies the rest as hooks: :meth:`_prepare` (before the
    socket binds), ``_launch()`` (start its background tasks),
    ``_dispatch(request, session, previous)`` (set one decoded request
    in motion and return the awaitable of its outcome, or None to make
    it a barrier; may raise :class:`Refused`; *previous* is the
    session's latest dispatched or served answer), ``_route(request,
    session)`` (serve a barrier; may raise :class:`Refused`),
    :meth:`_end_session` (once the session's requests have settled),
    ``_quiesce(deadline)`` (finish its own work once no connection is
    accepted any more; true when *deadline* cut that short) and
    ``_release()`` (free what it holds once its connections are gone).
    """

    #: set by each tier
    TIER: Tier

    def __init__(self, config: Any, counters: Any, inflight: int) -> None:
        self.config = config
        self.counters = counters
        self._inflight = inflight
        self.sessions: dict[int, Session] = {}
        self._next_sid = 1
        self._listener: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._stop_task: Optional[asyncio.Task] = None
        self._draining = False
        self._stopped = asyncio.Event()
        self._started_monotonic = 0.0
        # request-metric children, resolved per op / (op, status) and
        # keyed on the registry's identity so an obs.enable() cycle
        # (which swaps the registry) invalidates them: going through
        # the runtime facade costs a label-key build per request
        self._request_metrics: Optional[
            tuple[Any, dict[str, Any], dict[tuple[str, str], Any]]
        ] = None

    def _prepare(self) -> None:
        """Runs once before the socket binds (a tier hook)."""

    def _end_session(self, session: Session) -> None:
        """Runs once a session's connection is gone and its requests
        have settled (a tier hook)."""

    # ------------------------------------------------------------------
    # listener
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful after an ephemeral bind."""
        if self._listener is None:
            raise RuntimeError(f"{self.TIER.events} not started")
        host, port = self._listener.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Prepare, bind, launch the background tasks, begin accepting."""
        if self._listener is not None:
            raise RuntimeError(f"{self.TIER.events} already started")
        self._prepare()
        self._listener = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self._launch()
        self._started_monotonic = time.monotonic()
        host, port = self.address
        obs.event(f"{self.TIER.events}.started", host=host, port=port)
        return host, port

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` op) completes."""
        await self._stopped.wait()

    def _shutdown(self, session: Session) -> Answer:
        """The ``shutdown`` verb: answer, close this connection, drain."""
        session.closing = True
        self._stop_task = asyncio.get_running_loop().create_task(self.stop())
        return protocol.OK, {"draining": True}, None

    # ------------------------------------------------------------------
    # bounded drain
    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Graceful drain, bounded: stop accepting, let the tier finish
        its work and every session answer the requests it has read,
        close every connection — but only until :data:`DRAIN_DEADLINE_S`;
        past it, surviving connections are force-closed, so one stalled
        client can never hang shutdown."""
        if self._listener is None:  # never started: nothing to drain
            self._stopped.set()
            return
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        deadline = time.monotonic() + DRAIN_DEADLINE_S
        self._listener.close()  # stop accepting
        await self._listener.wait_closed()
        forced = await self._quiesce(deadline)
        owed = []
        for session in self.sessions.values():
            session.closing = True
            owed += [answer for _, _, answer in session.owed if not answer.done()]
        if owed:
            _done, late = await asyncio.wait(
                owed, timeout=max(0.0, deadline - time.monotonic()),
            )
            forced = forced or bool(late)
        # handler tasks blocked in readline() only notice `closing` on
        # the next frame; yield once so finished requests flush their
        # responses, then force EOF on every remaining stream
        await asyncio.sleep(0)
        for writer in list(self._writers.values()):
            writer.close()
        if self._conn_tasks:
            _done, survivors = await asyncio.wait(
                list(self._conn_tasks),
                timeout=max(0.05, deadline - time.monotonic()),
            )
            if survivors:
                # a close() is graceful — it still waits for the kernel
                # buffer to drain, which a client that stopped reading
                # can stall forever.  The deadline's teeth: abort.
                forced = True
                self._force_close_connections()
                await asyncio.wait(list(survivors), timeout=1.0)
        self._release()
        obs.event(
            f"{self.TIER.events}.stopped", sessions=len(self.sessions),
            forced=forced, **{self.TIER.hop: self.config.name},
        )
        self._stopped.set()

    def _force_close_connections(self) -> None:
        """Abort every surviving connection with a best-effort typed frame."""
        for sid, writer in list(self._writers.items()):
            try:
                writer.write(_FORCE_CLOSED)
            except Exception:
                pass  # transport already dying; the abort below settles it
            transport = writer.transport
            if transport is not None:
                transport.abort()
            self.counters.connections_force_closed += 1
            obs.event(
                f"{self.TIER.events}.force_close", sid=sid,
                **{self.TIER.hop: self.config.name},
            )
        for task in list(self._conn_tasks):
            task.cancel()

    # ------------------------------------------------------------------
    # sessions and framing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        session = Session(
            sid=self._next_sid, peer=peer, opened_monotonic=time.monotonic()
        )
        self._next_sid += 1
        self.sessions[session.sid] = session
        self._writers[session.sid] = writer
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.counters.connections_opened += 1
        obs.event(f"{self.TIER.events}.connect", sid=session.sid, peer=peer)
        try:
            await self._serve_connection(session, reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-response
        except asyncio.CancelledError:
            pass  # force-close/abort cancelled us: end the task quietly
        finally:
            self.sessions.pop(session.sid, None)
            self._writers.pop(session.sid, None)
            if task is not None:
                self._conn_tasks.discard(task)
            self.counters.connections_closed += 1
            obs.event(
                f"{self.TIER.events}.disconnect", sid=session.sid,
                requests=session.requests,
            )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # the connection loop: read ahead, dispatch, answer in request order
    # ------------------------------------------------------------------
    async def _serve_connection(
        self,
        session: Session,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        owed = session.owed
        # the latest answer dispatched or served.  Each completes no
        # earlier than the one before it — a node resolves a session's
        # writes in queue order, and a router's request acts on its
        # replies only after *previous* completed — so once it is done,
        # every earlier one is
        last: Optional[asyncio.Future] = None

        def answer_ready(_answer: object = None) -> None:
            """Write every ready answer at the head of the FIFO, at once."""
            out = []
            while owed and owed[0][2].done():
                request, started, answer = owed.popleft()
                if request is None:
                    out.append(answer.result())
                elif not answer.cancelled():
                    out.append(self._finish(
                        session, request, started, _outcome(answer)
                    ))
            if out and not writer.transport.is_closing():
                writer.write(b"".join(out))

        def owe(
            request: Optional[Request], started: float, answer: asyncio.Future
        ) -> asyncio.Future:
            owed.append((request, started, answer))
            # done callbacks run on a later turn of the loop, once the
            # frames already buffered are read: ready answers coalesce
            answer.add_done_callback(answer_ready)
            return answer

        try:
            try:
                while not session.closing:
                    # the answers are written by done callbacks; a client
                    # that stops reading them holds this task here, where
                    # the bounded drain finds it
                    await writer.drain()
                    if len(owed) >= self._inflight:
                        await asyncio.wait((owed[0][2],))
                        continue
                    try:
                        line = await reader.readline()
                    except (asyncio.LimitOverrunError, ValueError):
                        owe(None, 0.0, _ready(self._frame_too_long()))
                        break
                    if not line:
                        break  # EOF: answer what was read, then close
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        request, started = self._decode(line)
                    except ProtocolError as err:
                        owe(None, 0.0, _ready(self._undecodable(session, err)))
                        continue
                    try:
                        routed = self._dispatch(request, session, last)
                    except Exception as err:
                        owe(request, started, _ready(as_refusal(err)))
                        continue
                    if routed is not None:
                        last = owe(request, started, asyncio.ensure_future(routed))
                        continue
                    # a barrier: served alone once every earlier request
                    # completed, owed meanwhile (a graceful stop waits)
                    if last is not None and not last.done():
                        await asyncio.wait((last,))
                    last = owe(
                        request, started,
                        asyncio.get_running_loop().create_future(),
                    )
                    last.set_result(await self._respond(request, session))
            except (ConnectionResetError, BrokenPipeError):
                pass  # the client vanished: what it sent runs to the end
            if last is not None and not last.done():
                await asyncio.wait((last,))
            answer_ready()
            await writer.drain()
        finally:
            # left owed only when cancelled (force-close, crash)
            abandoned = list(owed)
            owed.clear()
            for _request, _started, answer in abandoned:
                answer.cancel()
            self._end_session(session)

    def _frame_too_long(self) -> bytes:
        """Count an over-long frame and build its answer; the caller then
        gives up on the stream (framing can no longer be trusted)."""
        self.counters.bad_requests += 1
        return _FRAME_TOO_LONG

    def _undecodable(self, session: Session, err: ProtocolError) -> bytes:
        """Count a frame that is no request and build its answer."""
        self.counters.bad_requests += 1
        session.observe("?", ok=False)
        return protocol.encode_response(
            0, protocol.BAD_REQUEST,
            error=protocol.error_body("protocol", str(err)),
        )

    def _decode(self, line: bytes) -> tuple[Request, float]:
        """Parse one frame (raises :class:`ProtocolError`); with the
        request, the clock reading its latency counts from."""
        request = protocol.decode_request(line)
        self.counters.requests_total += 1
        started = time.perf_counter()
        wire = request.fields.pop("trace", None)
        if wire is not None:
            # adopt the caller's trace context: this request's span
            # becomes a child of the caller's span.  The context rides
            # on the request object because handlers run concurrently
            # on the loop — a thread-local would bleed across tasks
            trace_context = obs.adopt_wire_trace(wire)
            if trace_context is not None:
                request.fields["_trace_context"] = trace_context
        return request, started

    # ------------------------------------------------------------------
    # answering and accounting
    # ------------------------------------------------------------------
    async def _respond(self, request: Request, session: Session) -> Outcome:
        """Serve a barrier through the tier's ``_route``.  Never raises:
        a refusal is answered as one, and so is a handler bug, which
        must not kill the connection loop."""
        try:
            return await self._route(request, session)
        except Exception as err:
            return as_refusal(err)

    def _finish(
        self,
        session: Session,
        request: Request,
        started: float,
        outcome: Outcome,
    ) -> bytes:
        """Account for one answered request and encode its response."""
        raw: Optional[Raw] = None
        fields: dict[str, Any] = {}
        error = None
        if isinstance(outcome, Raw):
            raw = outcome
            status = outcome.status
        elif isinstance(outcome, Refused):
            status = outcome.status
            error = protocol.error_body(outcome.code, str(outcome))
        else:
            status, fields, error = outcome
        ended = time.perf_counter()
        state = obs.state()
        if state is not None:
            registry = state.registry
            cache = self._request_metrics
            if cache is None or cache[0] is not registry:
                cache = self._request_metrics = (registry, {}, {})
            op = request.op
            histogram = cache[1].get(op)
            if histogram is None:
                histogram = cache[1][op] = registry.histogram(
                    *self.TIER.request_seconds,
                    ("op",), buckets=SERVER_LATENCY_BUCKETS,
                ).labels(op=op)
            histogram.observe(ended - started)
            counter = cache[2].get((op, status))
            if counter is None:
                counter = cache[2][(op, status)] = registry.counter(
                    *self.TIER.requests_total, ("op", "status"),
                ).labels(op=op, status=status)
            counter.inc()
        ok = status in protocol.SUCCESS_STATUSES
        session.observe(request.op, ok=ok)
        if not ok:
            self.counters.requests_failed += 1
        trace_context = request_trace_context(request)
        if trace_context is not None:
            # this tier's hop in the distributed trace.  Recorded after
            # the fact (record_remote_span) because the request awaited;
            # synchronous children (query execution, the gather merge)
            # already nested under this context via trace_scope
            obs.record_remote_span(
                f"{self.TIER.hop}.request", started, ended, trace_context,
                error=(
                    None if ok or status in protocol.PARTIAL_STATUSES
                    else status
                ),
                op=request.op, status=status,
                **{self.TIER.hop: self.config.name},
            )
        if raw is not None:
            return b'{"id":' + str(request.id).encode() + raw.fragment
        return protocol.encode_response(
            request.id, status, error=error, **fields
        )
