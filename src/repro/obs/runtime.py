"""The process-wide observability switch and its zero-cost-off helpers.

Instrumented code throughout the repo calls four module-level functions
— :func:`span`, :func:`event`, :func:`inc`, :func:`observe` (plus
:func:`gauge_set`) — instead of holding tracer/registry references.
While observability is *disabled* (the default) each call is one global
read and an early return: no span objects, no dict churn, no locks.
``benchmarks/bench_observability.py`` holds that claim to a measured
noise-level bound.

:func:`enable` installs an :class:`ObservabilityState` — a registry, a
tracer (optional), a ring-buffer event log, and optionally a JSONL trace
exporter — and returns it; :func:`disable` uninstalls it (the state
object stays readable, so a CLI can render its digests after the run).
Enable/disable nest poorly on purpose: there is exactly one active state
per process, like a logging root handler.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ContextManager, Optional, Sequence, Union

from repro.obs import counters
from repro.obs.events import EventLog
from repro.obs.export import JsonlSpanExporter
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    TraceContext,
    Tracer,
    new_span_id,
    new_trace_id,
)


@dataclass
class ObservabilityState:
    """Everything one enabled observability session collects."""

    registry: MetricsRegistry
    tracer: Optional[Tracer]
    events: EventLog
    exporter: Optional[JsonlSpanExporter] = None
    #: trace-context propagation: when True, clients stamp a ``trace``
    #: field on every outgoing wire request and servers adopt incoming
    #: ones (see wire_trace / adopt_wire_trace)
    propagate: bool = False

    def close(self) -> None:
        if self.exporter is not None:
            self.exporter.close()
            self.exporter = None


_STATE: Optional[ObservabilityState] = None
#: hot-path mirrors of ``_STATE``'s members — span()/inc()/observe() read
#: one module global instead of chasing attributes on every call
_TRACER: Optional[Tracer] = None
_REGISTRY: Optional[MetricsRegistry] = None
#: mirror of ``_STATE.propagate`` — wire_trace() is called per client
#: request and must stay one global read when propagation is off
_PROPAGATE: bool = False

#: span name -> (histogram name, help text, buckets): declared once at
#: import time, wired into every tracer that ``enable`` installs
_SPAN_HISTOGRAMS: dict[
    str, tuple[str, str, Optional[tuple[float, ...]]]
] = {}

#: shared reusable no-op scope for trace_scope() while disabled
_NULL_SCOPE: ContextManager[None] = nullcontext()


def bind_span_histogram(
    span_name: str,
    metric_name: str,
    help_text: str = "",
    buckets: Optional[Sequence[float]] = None,
) -> None:
    """Feed every ``span_name`` span's duration into a histogram.

    The span already times the region; binding it to a histogram makes
    that one measurement serve both the trace and the latency metric,
    so a hot call site pays for a single span and nothing else.  Call
    at module import time, next to the instrumented code; the binding
    applies to the current observability session (if tracing) and to
    every later :func:`enable`.  ``buckets`` overrides the histogram's
    bounds (only honored when this binding creates the family).
    """
    bounds = tuple(buckets) if buckets is not None else None
    _SPAN_HISTOGRAMS[span_name] = (metric_name, help_text, bounds)
    if _STATE is not None and _STATE.tracer is not None:
        _STATE.tracer.span_histograms[span_name] = _STATE.registry.histogram(
            metric_name, help_text, buckets=bounds
        )._unlabeled()


def enable(
    trace: bool = True,
    slow_op_threshold_s: Optional[float] = 0.05,
    trace_jsonl_path: Optional[Union[str, Path]] = None,
    registry: Optional[MetricsRegistry] = None,
    propagate: bool = False,
) -> ObservabilityState:
    """Turn observability on; returns the installed state.

    Args:
        trace: also install a tracer (metrics/events alone are cheaper).
        slow_op_threshold_s: spans at least this long land in the
            tracer's slow-op log (None disables the log).
        trace_jsonl_path: when set, finished traces are appended there
            as JSON lines.
        registry: reuse an existing registry (tests; default: fresh).
        propagate: stamp/adopt wire trace contexts (distributed traces;
            requires ``trace``).  Off by default — a client of an
            uninstrumented server gains nothing from the extra field.

    The event log and the tracer's rings have fixed sizes
    (:data:`repro.obs.events.CAPACITY`,
    :data:`repro.obs.tracing.FINISHED_TRACES` and
    :data:`~repro.obs.tracing.SLOW_OPS`).
    """
    global _STATE, _TRACER, _REGISTRY, _PROPAGATE
    if _STATE is not None:
        disable()
    exporter = (
        JsonlSpanExporter(trace_jsonl_path)
        if trace_jsonl_path is not None
        else None
    )
    tracer = (
        Tracer(slow_threshold_s=slow_op_threshold_s, exporter=exporter)
        if trace
        else None
    )
    _STATE = ObservabilityState(
        registry=registry if registry is not None else MetricsRegistry(),
        tracer=tracer,
        events=EventLog(),
        exporter=exporter,
        propagate=propagate and tracer is not None,
    )
    if tracer is not None:
        for span_name, (metric, help_text, bounds) in _SPAN_HISTOGRAMS.items():
            tracer.span_histograms[span_name] = _STATE.registry.histogram(
                metric, help_text, buckets=bounds
            )._unlabeled()
    counters.attach(_STATE.registry)
    _TRACER = _STATE.tracer
    _REGISTRY = _STATE.registry
    _PROPAGATE = _STATE.propagate
    return _STATE


def disable() -> Optional[ObservabilityState]:
    """Turn observability off; returns the state that was active."""
    global _STATE, _TRACER, _REGISTRY, _PROPAGATE
    state = _STATE
    _STATE = None
    _TRACER = None
    _REGISTRY = None
    _PROPAGATE = False
    if state is not None:
        # the counter sets go on counting; the returned state reports
        # what they counted while this session was enabled
        state.registry.freeze()
        state.close()
    return state


def is_enabled() -> bool:
    return _STATE is not None


def state() -> Optional[ObservabilityState]:
    """The active state, or None while disabled."""
    return _STATE


# ---------------------------------------------------------------------------
# hot-path helpers: one global read + early return when disabled.  While
# enabled they stay lean too — spans are built directly (no tracer
# dispatch) and unlabeled metric children come from the registry's
# per-kind caches, so an enabled call site is a dict get plus one child
# method call.  benchmarks/bench_observability.py gates both modes.
# ---------------------------------------------------------------------------
def span(name: str, **attributes: Any) -> Span:
    """A tracer span, or the shared no-op span while disabled/untraced."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN  # type: ignore[return-value]
    return Span(tracer, name, attributes)


def event(kind: str, /, **fields: Any) -> None:
    """Emit one event into the ring buffer (dropped silently when off)."""
    s = _STATE
    if s is not None:
        s.events.emit(kind, **fields)


def inc(name: str, amount: float = 1.0, help_text: str = "",
        **labels: Any) -> None:
    """Increment a counter family (created on first use)."""
    registry = _REGISTRY
    if registry is None:
        return
    if labels:
        key = (name,) + tuple(sorted(labels.items()))
        child = registry._fast_labeled.get(key)
        if child is None:
            family = registry.counter(name, help_text, tuple(sorted(labels)))
            child = registry._fast_labeled[key] = family.labels(**labels)
        child.inc(amount)
        return
    child = registry._fast_counters.get(name)
    if child is None:
        child = registry.counter(name, help_text)._unlabeled()
        registry._fast_counters[name] = child
    child.inc(amount)


def observe(name: str, value: float, help_text: str = "",
            buckets: Optional[Sequence[float]] = None,
            **labels: Any) -> None:
    """Observe a value into a histogram family (created on first use).

    ``buckets`` sets the family's bounds when this call creates it
    (registry semantics: bounds are fixed at family creation).
    """
    registry = _REGISTRY
    if registry is None:
        return
    if labels:
        key = (name,) + tuple(sorted(labels.items()))
        child = registry._fast_labeled.get(key)
        if child is None:
            family = registry.histogram(
                name, help_text, tuple(sorted(labels)), buckets=buckets
            )
            child = registry._fast_labeled[key] = family.labels(**labels)
        child.observe(value)
        return
    child = registry._fast_histograms.get(name)
    if child is None:
        child = registry.histogram(
            name, help_text, buckets=buckets
        )._unlabeled()
        registry._fast_histograms[name] = child
    child.observe(value)


def gauge_set(name: str, value: float, help_text: str = "",
              **labels: Any) -> None:
    """Set a gauge family's value (created on first use)."""
    registry = _REGISTRY
    if registry is None:
        return
    if labels:
        key = (name,) + tuple(sorted(labels.items()))
        child = registry._fast_labeled.get(key)
        if child is None:
            family = registry.gauge(name, help_text, tuple(sorted(labels)))
            child = registry._fast_labeled[key] = family.labels(**labels)
        child.set(value)
        return
    child = registry._fast_gauges.get(name)
    if child is None:
        child = registry.gauge(name, help_text)._unlabeled()
        registry._fast_gauges[name] = child
    child.set(value)


# ---------------------------------------------------------------------------
# distributed-trace helpers: how a trace context crosses the wire.  All
# four are one-or-two global reads and an early return unless tracing
# *and* propagation are enabled — a client or server running with
# observability off pays nothing for them.
# ---------------------------------------------------------------------------
def wire_trace() -> Optional[str]:
    """The ``trace`` field for an outgoing request, or None.

    Inside an open span (or an adopted remote context) the current
    position in the trace is stamped, so the receiver's spans become
    children of the caller's.  Outside any span a fresh, sampled root
    context is minted — the originating client starts the trace.  Either
    way the value is the flat traceparent string of
    :meth:`TraceContext.to_wire`.
    """
    tracer = _TRACER
    if tracer is None or not _PROPAGATE:
        return None
    context = tracer.current_context()
    if context is not None:
        return context.to_wire()
    # fresh root minted straight into wire form: this runs per client
    # request, and the intermediate TraceContext would be garbage
    return "00-" + new_trace_id() + "-" + new_span_id() + "-01"


def adopt_wire_trace(wire: Any) -> Optional[TraceContext]:
    """Parse an incoming ``trace`` field into this hop's own context.

    Returns a *child* context (fresh span id, parented on the sender's
    span) ready to stamp on the span this hop records for the request —
    or None when propagation is off or the field is absent/malformed.
    """
    tracer = _TRACER
    if tracer is None or not _PROPAGATE or wire is None:
        return None
    # parse + child fused into one construction: this runs per served
    # request, so the intermediate parent context is skipped.  Shape
    # checks mirror TraceContext.from_wire (see its docstring for why
    # validation stops there)
    if (
        not isinstance(wire, str)
        or len(wire) != 55
        or not wire.startswith("00-")
        or wire[35] != "-"
        or wire[52] != "-"
    ):
        return None
    return TraceContext(
        wire[3:35], new_span_id(), wire[36:52], wire[53:55] != "00",
    )


def trace_scope(context: Optional[TraceContext]) -> ContextManager[Any]:
    """Activate *context* as the ambient parent for local root spans.

    Wrap only synchronous regions (no ``await`` inside): the ambient
    slot is thread-local and would bleed into interleaved event-loop
    tasks.  A None or unsampled context yields a shared no-op scope.
    """
    tracer = _TRACER
    if tracer is None or context is None or not context.sampled:
        return _NULL_SCOPE
    return tracer.activate_context(context)


def record_remote_span(
    name: str,
    started_s: float,
    ended_s: float,
    context: Optional[TraceContext],
    error: Optional[str] = None,
    **attributes: Any,
) -> None:
    """Record one externally timed span under *context* (see
    :meth:`Tracer.record_span`); dropped when tracing is off or the
    context is absent/unsampled."""
    tracer = _TRACER
    if tracer is None or context is None or not context.sampled:
        return
    tracer.record_span(
        name, started_s, ended_s, context=context, error=error, **attributes
    )
