"""Structured tracing: spans, nesting, timing, and slow-op capture.

A :class:`Span` is one timed region of a request — an insert, the rating
scan inside it, the split cascade it triggered.  Spans nest: the tracer
keeps a per-thread stack, so a span opened while another is active
becomes its child, and a finished *root* span is a complete tree of what
one operation did and where its time went.  Timing uses
``time.perf_counter()`` exclusively (monotonic; wall-clock time has no
business inside a duration — see ``docs/OBSERVABILITY.md``).

The tracer keeps three digests, all bounded:

* ``finished`` — the most recent root span trees (ring, for
  ``python -m repro obs --traces``);
* ``aggregates`` — per-name call count and cumulative time ("top spans");
* ``slow_ops`` — spans whose duration crossed ``slow_threshold_s``.

An optional ``exporter`` callable receives every finished root span —
:class:`repro.obs.export.JsonlSpanExporter` writes them as JSON lines.

Spans are exception-safe: ``with tracer.span("x"):`` always closes the
span and pops the stack; an escaping exception is recorded on the span
(``error``) and re-raised.  When observability is disabled, call sites
get the shared :data:`NOOP_SPAN` instead — one allocation-free object
whose methods do nothing (see :mod:`repro.obs.runtime`).
"""

from __future__ import annotations

import random as _random
import threading
from collections import deque
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

#: process-local id source for trace/span ids.  Mersenne state is only
#: touched under the GIL (getrandbits is one C call), and collisions
#: across processes are astronomically unlikely at these widths
#: (128-bit trace ids, 64-bit span ids — the W3C traceparent widths).
_IDS = _random.Random()


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id."""
    return f"{_IDS.getrandbits(128):032x}"


def new_span_id() -> str:
    """A fresh 16-hex-digit span id."""
    return f"{_IDS.getrandbits(64):016x}"


class TraceContext:
    """One hop's position in a distributed trace.

    ``trace_id`` names the whole cross-process tree; ``span_id`` is the
    id of *this* hop's span; ``parent_span_id`` links it to the hop one
    wire crossing upstream (None at the originating client).  The wire
    form (:meth:`to_wire`) carries only ``trace_id``, the sender's
    ``span_id``, and the ``sampled`` flag — the receiver derives its own
    context with :meth:`child`, so parent/child edges are implied by the
    request flow rather than shipped explicitly.
    """

    __slots__ = ("trace_id", "span_id", "parent_span_id", "sampled")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_span_id: Optional[str] = None,
        sampled: bool = True,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span_id = parent_span_id
        self.sampled = sampled

    @classmethod
    def new(cls, sampled: bool = True) -> "TraceContext":
        """A fresh root context (the originating client's hop)."""
        return cls(new_trace_id(), new_span_id(), None, sampled)

    def child(self) -> "TraceContext":
        """A context one hop below this one (fresh span id)."""
        return TraceContext(
            self.trace_id, new_span_id(), self.span_id, self.sampled
        )

    def to_wire(self) -> str:
        """The ``trace`` request field: what crosses the wire.

        The W3C ``traceparent`` form —
        ``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>`` — a flat
        55-character string.  A string encodes and decodes in a fraction
        of a nested object's time, and every request pays that cost on
        both sides of the wire.
        """
        return (
            "00-" + self.trace_id + "-" + self.span_id
            + ("-01" if self.sampled else "-00")
        )

    @classmethod
    def from_wire(cls, document: Any) -> Optional["TraceContext"]:
        """Parse a ``trace`` request field; None when malformed.

        Robustness over strictness: a garbled trace field must never
        fail the request it rode in on, so anything that does not look
        like a traceparent string is simply ignored.  Validation is
        shape-only (version prefix, length, dash positions) — per-digit
        hex checks would tax every request to reject inputs that only a
        broken client can produce, and a wrong-but-well-shaped id still
        correlates consistently.
        """
        if (
            not isinstance(document, str)
            or len(document) != 55
            or not document.startswith("00-")
            or document[35] != "-"
            or document[52] != "-"
        ):
            return None
        return cls(
            document[3:35], document[36:52], None, document[53:55] != "00"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext({self.trace_id[:8]}…, span={self.span_id}, "
            f"parent={self.parent_span_id}, sampled={self.sampled})"
        )


class Span:
    """One timed, attributed region, possibly nested under a parent."""

    __slots__ = ("name", "attributes", "_children", "started_s", "ended_s",
                 "error", "_tracer", "trace_id", "span_id", "parent_span_id")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        # child list is allocated lazily on first child — most spans are
        # leaves, and the hot path pays for every per-span allocation
        self._children: Optional[list[Span]] = None
        self.started_s = 0.0
        self.ended_s = 0.0
        self.error: Optional[str] = None
        # distributed-trace ids stay None (and cost three stores) unless
        # this span is part of a propagated trace — see __enter__
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_span_id: Optional[str] = None

    is_recording = True

    @property
    def children(self) -> Sequence["Span"]:
        return self._children if self._children is not None else ()

    @property
    def duration_s(self) -> float:
        return self.ended_s - self.started_s

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        # stack handling is inlined (not delegated to the tracer): spans
        # are the single hottest instrumentation object and every
        # indirection here is paid thousands of times per workload
        try:
            stack = self._tracer._local.stack
        except AttributeError:
            stack = self._tracer._local.stack = []
        if stack:
            parent = stack[-1]
            if parent._children is None:
                parent._children = [self]
            else:
                parent._children.append(self)
            if parent.trace_id is not None:
                # inside a propagated trace: adopt the lineage.  The
                # parent's id is minted here on first child; this span's
                # own id stays None until something needs it (a wire
                # crossing or export) — most spans are leaves that are
                # never referenced, and id formatting is pure overhead
                self.trace_id = parent.trace_id
                parent_id = parent.span_id
                if parent_id is None:
                    parent_id = parent.span_id = new_span_id()
                self.parent_span_id = parent_id
        else:
            context = getattr(self._tracer._local, "context", None)
            if context is not None:
                # a remote parent is active on this thread (the server
                # adopted an incoming wire context): this root adopts
                # it; its own id is minted lazily (see above)
                self.trace_id = context.trace_id
                self.parent_span_id = context.span_id
        stack.append(self)
        self.started_s = perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        # the entire close path is inlined for the same reason as
        # __enter__: this runs for every span the system ever opens
        self.ended_s = ended = perf_counter()
        if exc is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        tracer = self._tracer
        stack = tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()
        else:
            # exception safety: unwind past spans a crashed frame left open
            while stack:
                if stack.pop() is self:
                    break
        duration = ended - self.started_s
        histogram = tracer.span_histograms.get(self.name)
        if histogram is not None:
            # span-timed histogram: the duration this span already
            # measured feeds the bound latency metric directly, so hot
            # call sites don't time the same region twice (see
            # runtime.bind_span_histogram)
            histogram.observe(duration)
        aggregate = tracer.aggregates.get(self.name)
        if aggregate is None:
            tracer.aggregates[self.name] = [1, duration]
        else:
            aggregate[0] += 1
            aggregate[1] += duration
        if duration >= tracer._slow_cutoff:
            tracer._record_slow(self, duration)
        if not stack:
            tracer.roots_finished += 1
            tracer.finished.append(self)
            if tracer.exporter is not None:
                tracer.exporter(self)
        return False  # never suppress

    def to_dict(self) -> dict[str, Any]:
        """The span tree as a JSON-ready document."""
        document: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_s * 1e3, 4),
            "attributes": dict(self.attributes),
        }
        if self.trace_id is not None:
            if self.span_id is None:
                # leaf span exported before anything forced an id
                self.span_id = new_span_id()
            document["trace_id"] = self.trace_id
            document["span_id"] = self.span_id
            if self.parent_span_id is not None:
                document["parent_span_id"] = self.parent_span_id
        if self.error is not None:
            document["error"] = self.error
        if self._children:
            document["children"] = [
                child.to_dict() for child in self._children
            ]
        return document

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        if self._children:
            for child in self._children:
                yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms)"


class _NoopSpan:
    """The do-nothing span handed out while observability is disabled.

    One shared instance; entering, exiting, and attributing it are all
    no-ops, so disabled instrumentation costs one function call and one
    identity check per site.
    """

    __slots__ = ()

    is_recording = False
    name = ""
    error = None
    duration_s = 0.0
    attributes: dict[str, Any] = {}
    children: list["Span"] = []
    trace_id = None
    span_id = None
    parent_span_id = None

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _ContextScope:
    """``with tracer.activate_context(ctx):`` — ambient remote parent.

    While active on a thread, any *root* span opened there adopts the
    context's trace id and treats the context's span as its parent —
    how an adopted wire context reaches the synchronous spans a request
    handler opens.  Scopes restore the previous context on exit, so they
    nest; they must wrap only synchronous regions (the ambient slot is
    thread-local, and an ``await`` would leak it to interleaved tasks).
    """

    __slots__ = ("_tracer", "_context", "_previous")

    def __init__(self, tracer: "Tracer", context: TraceContext) -> None:
        self._tracer = tracer
        self._context = context
        self._previous: Optional[TraceContext] = None

    def __enter__(self) -> TraceContext:
        local = self._tracer._local
        self._previous = getattr(local, "context", None)
        local.context = self._context
        return self._context

    def __exit__(self, *_exc: object) -> bool:
        self._tracer._local.context = self._previous
        return False


#: root span trees a :class:`Tracer` keeps.  The ring is also a GC dial:
#: every retained tree is an object graph the young-generation collector
#: must traverse while it lives, so a busy server pays for capacity it
#: never reads; 32 keeps several full request fan-outs inspectable
FINISHED_TRACES = 32
#: slow-threshold crossers a :class:`Tracer` keeps
SLOW_OPS = 128


class Tracer:
    """Creates spans, tracks nesting, and keeps the bounded digests."""

    def __init__(
        self,
        slow_threshold_s: Optional[float] = None,
        exporter: Optional[Callable[[Span], None]] = None,
    ) -> None:
        self.slow_threshold_s = slow_threshold_s
        #: hot-path form of the threshold: one compare, no None check
        self._slow_cutoff = (
            slow_threshold_s if slow_threshold_s is not None else float("inf")
        )
        self.exporter = exporter
        #: span name -> histogram child observing every such span's
        #: duration (wired by ``runtime.enable`` from the bindings that
        #: ``runtime.bind_span_histogram`` collected)
        self.span_histograms: dict[str, Any] = {}
        self._local = threading.local()
        #: most recent finished root spans (oldest evicted first)
        self.finished: deque[Span] = deque(maxlen=FINISHED_TRACES)
        #: root spans finished over the tracer's lifetime
        self.roots_finished = 0
        #: span name -> [count, cumulative seconds]
        self.aggregates: dict[str, list[float]] = {}
        #: recent spans that crossed the slow threshold
        self.slow_ops: deque[dict[str, Any]] = deque(maxlen=SLOW_OPS)
        #: spans that crossed the threshold over the tracer's lifetime
        self.slow_ops_seen = 0

    # stack ---------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span; nest it with ``with tracer.span("name"): ...``."""
        return Span(self, name, attributes)

    # distributed-trace context -------------------------------------------
    def activate_context(self, context: TraceContext) -> _ContextScope:
        """Adopt *context* as this thread's ambient remote parent."""
        return _ContextScope(self, context)

    def current_context(self) -> Optional[TraceContext]:
        """This thread's position in a trace, if it has one.

        The innermost open span wins (allocating ids for it on demand so
        the caller can cross a wire from inside any span); with no span
        open, the ambient context installed by :meth:`activate_context`
        answers; otherwise None.
        """
        stack = getattr(self._local, "stack", None)
        if stack:
            span = stack[-1]
            if span.trace_id is None:
                # a local-only trace crossing the wire for the first
                # time: mint ids lazily so purely local spans never pay
                span.trace_id = new_trace_id()
                span.span_id = new_span_id()
            elif span.span_id is None:
                # propagated trace, id deferred at __enter__: the wire
                # crossing is the moment it becomes observable
                span.span_id = new_span_id()
            return TraceContext(
                span.trace_id, span.span_id, span.parent_span_id
            )
        return getattr(self._local, "context", None)

    def record_span(
        self,
        name: str,
        started_s: float,
        ended_s: float,
        context: Optional[TraceContext] = None,
        error: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """Record an externally timed span without touching the stack.

        The escape hatch for event-loop code: a request handler that
        awaits cannot hold a stack-based span open (the per-thread stack
        would interleave across tasks), so it measures start/end itself
        and records the finished span here.  The span lands in every
        digest exactly as a stack root would — aggregates, the slow-op
        log, the finished ring, bound histograms, and the exporter —
        and carries *context*'s ids so it threads into the distributed
        trace.
        """
        span = Span(self, name, attributes)
        span.started_s = started_s
        span.ended_s = ended_s
        span.error = error
        if context is not None:
            span.trace_id = context.trace_id
            span.span_id = context.span_id
            span.parent_span_id = context.parent_span_id
        duration = ended_s - started_s
        histogram = self.span_histograms.get(name)
        if histogram is not None:
            histogram.observe(duration)
        aggregate = self.aggregates.get(name)
        if aggregate is None:
            self.aggregates[name] = [1, duration]
        else:
            aggregate[0] += 1
            aggregate[1] += duration
        if duration >= self._slow_cutoff:
            self._record_slow(span, duration)
        self.roots_finished += 1
        self.finished.append(span)
        if self.exporter is not None:
            self.exporter(span)
        return span

    def _record_slow(self, span: Span, duration: float) -> None:
        """Log one span that crossed the slow threshold."""
        self.slow_ops_seen += 1
        self.slow_ops.append({
            "name": span.name,
            "duration_ms": round(duration * 1e3, 4),
            "attributes": dict(span.attributes),
            "error": span.error,
        })

    # digests -------------------------------------------------------------
    @property
    def traces_dropped(self) -> int:
        """Finished root spans evicted from the ring buffer."""
        return self.roots_finished - len(self.finished)

    def top_spans(self, n: int = 10) -> list[tuple[str, int, float]]:
        """``(name, count, cumulative seconds)`` — heaviest first."""
        ranked = sorted(
            self.aggregates.items(), key=lambda item: item[1][1], reverse=True
        )
        return [
            (name, int(count), total) for name, (count, total) in ranked[:n]
        ]

    def recent_traces(self, n: int = 10) -> list[Span]:
        """The *n* most recent finished root spans, newest last."""
        if n <= 0:
            return []
        return list(self.finished)[-n:]

    def find_trace(self, name: str) -> Optional[Span]:
        """The most recent finished root span with *name* (None if gone)."""
        for span in reversed(self.finished):
            if span.name == name:
                return span
        return None
