"""The front door both serving tiers share: one TCP shell.

A serving node (:class:`~repro.server.server.CinderellaServer`) and the
router (:class:`~repro.router.router.CinderellaRouter`) speak the same
protocol, and everything between the socket and a tier's own request
handling is one :class:`FrontDoor`: the listener, the :class:`Session`
registry, framing and trace adoption, the one refusal type
(:class:`Refused`), request accounting, and the bounded drain with its
typed force-close.  ``docs/SERVER.md`` ("The front door") describes it
once for both tiers.

Spans and the event loop: the tracer's span stack is per *thread*, so a
span held across an ``await`` would mis-parent the spans of interleaved
tasks; request latency goes straight into a histogram, and the tier's
hop span is recorded after the fact.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, NamedTuple, Optional, Union

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


def request_trace_context(request: Request) -> Optional[TraceContext]:
    """The adopted trace context :meth:`FrontDoor._decode` stashed on the
    request (the isinstance check also drops a wire-supplied impostor)."""
    context = request.fields.get("_trace_context")
    return context if isinstance(context, TraceContext) else None


class FrontDoor:
    """The TCP shell of one serving tier (see the module docstring).

    *config* carries ``host``, ``port``, ``name`` and
    ``drain_deadline_s``; *counters* carries ``connections_opened``,
    ``connections_closed``, ``connections_force_closed``,
    ``requests_total``, ``requests_failed`` and ``bad_requests``.

    A tier supplies the rest as hooks: :meth:`_prepare` (before the
    socket binds), ``_launch()`` (start its background tasks),
    ``_serve_connection(session, reader, writer)`` (its request loop;
    returns at EOF or when the session is closing), ``_route(request,
    session)`` (serve one decoded request; may raise :class:`Refused`),
    ``_quiesce(deadline)`` (finish its own work once no connection is
    accepted any more; true when *deadline* cut that short) and
    ``_release()`` (free what it holds once its connections are gone).
    """

    #: set by each tier
    TIER: Tier

    def __init__(self, config: Any, counters: Any) -> None:
        self.config = config
        self.counters = counters
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
        its work, close every connection — but only until
        ``drain_deadline_s``; past it, surviving connections are
        force-closed, so one stalled client can never hang shutdown."""
        if self._listener is None:  # never started: nothing to drain
            self._stopped.set()
            return
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        deadline = time.monotonic() + self.config.drain_deadline_s
        self._listener.close()  # stop accepting
        await self._listener.wait_closed()
        forced = await self._quiesce(deadline)
        for session in self.sessions.values():
            session.closing = True
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
    async def _respond(
        self,
        session: Session,
        request: Request,
        started: float,
        routed: Optional[Awaitable[Outcome]] = None,
    ) -> bytes:
        """Serve one request through the tier's ``_route`` — or await the
        outcome the tier already set in motion (*routed*) — and account
        for it.  Never raises: a refusal is answered as one, and so is a
        handler bug, which must not kill the connection loop."""
        try:
            outcome = await (
                routed if routed is not None else self._route(request, session)
            )
        except Exception as err:
            outcome = as_refusal(err)
        return self._finish(session, request, started, outcome)

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
        registry = obs.registry()
        if registry is not None:
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
