"""The metrics registry: labeled counter/gauge/histogram families.

One process-wide registry is the system of record for operational
metrics.  Instrumented code writes histograms, labeled counters and
level gauges into it directly; the always-on counter sets of
:mod:`repro.obs.counters` are not copied into it but *viewed* through
it — their families are computed at read time (``live_source``).
The design follows the Prometheus client-library data model:

* a **family** is one named metric with a fixed label schema
  (``repro_query_cache_hits_total`` with no labels,
  ``repro_txn_ops_total`` with ``kind``/``outcome``);
* each distinct label-value combination materializes one **child**
  holding the actual value; the family bounds child cardinality
  (:data:`MAX_LABEL_SETS`) so a label mistake cannot grow memory
  without bound;
* **histograms** hold cumulative bucket counts over configurable upper
  bounds (``le`` is inclusive, Prometheus semantics) plus sum and count.

All mutation goes through one lock per registry — increments are a few
hundred nanoseconds, which only matters when observability is enabled at
all (disabled instrumentation never reaches the registry; see
:mod:`repro.obs.runtime`).

Exposition is machine-readable in two formats:
:meth:`MetricsRegistry.to_prometheus` (text format 0.0.4) and
:meth:`MetricsRegistry.to_json` — both served by ``python -m repro obs``.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable, Optional, Sequence

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: default histogram upper bounds (seconds) — spans sub-100µs catalog
#: operations through multi-second reorganizations
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: server-path latency bounds (seconds): log-spaced ×2 from 50µs to
#: ~6.5s.  Wire requests cluster in the 100µs–10ms band where the
#: default bounds leave whole decades covered by one bucket; a federated
#: p99 interpolated inside a ×2 bucket is wrong by at most ×2, which is
#: what the SLO layer's burn rates can tolerate
SERVER_LATENCY_BUCKETS: tuple[float, ...] = (
    0.00005, 0.0001, 0.0002, 0.0004, 0.0008, 0.0016, 0.0032, 0.0064,
    0.0128, 0.0256, 0.0512, 0.1024, 0.2048, 0.4096, 0.8192, 1.6384,
    3.2768, 6.5536,
)

#: label-value combinations one family may materialize
MAX_LABEL_SETS = 256

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Raised on metric misuse: bad names, label mismatches, cardinality."""


def _validate_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")


class Counter:
    """A monotonically increasing value (one child of a counter family)."""

    __slots__ = ("labels", "value", "_lock")

    def __init__(self, labels: tuple[str, ...], lock: threading.Lock) -> None:
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only increase, got inc({amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (one child of a gauge family)."""

    __slots__ = ("labels", "value", "_lock")

    def __init__(self, labels: tuple[str, ...], lock: threading.Lock) -> None:
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Bucketed histogram (one child of a histogram family).

    Internally ``bucket_counts[i]`` holds only the observations that
    landed in bucket *i* (``bounds[i-1] < value <= bounds[i]``) — one
    :func:`bisect.bisect_left` per observation instead of a scan over
    every bound.  :meth:`cumulative_buckets` folds them into the
    cumulative inclusive-``le`` view that Prometheus exposes, with an
    implicit ``+Inf`` bucket equal to ``count``.
    """

    __slots__ = ("labels", "bounds", "bucket_counts", "sum", "count", "_lock")

    def __init__(
        self,
        labels: tuple[str, ...],
        bounds: tuple[float, ...],
        lock: threading.Lock,
    ) -> None:
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        # bisect_left keeps ``le`` inclusive: value == bound lands in
        # that bound's bucket; value above every bound counts only
        # toward the implicit +Inf bucket
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.sum += value
            self.count += 1
            if index < len(self.bucket_counts):
                self.bucket_counts[index] += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ``+Inf`` last."""
        pairs = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), self.count))
        return pairs


class MetricFamily:
    """One named metric and all its label children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...],
        lock: threading.Lock,
    ) -> None:
        _validate_name(name)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        if kind == HISTOGRAM:
            if not buckets or list(buckets) != sorted(set(buckets)):
                raise MetricError(
                    f"histogram buckets must be sorted and distinct: {buckets}"
                )
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = lock
        self._children: dict[tuple[str, ...], Any] = {}
        #: fast path for the common no-label family
        self._default: Optional[Any] = None

    def _make_child(self, labelvalues: tuple[str, ...]):
        # every child gets its own lock: update paths run on the event
        # loop, the batcher, and executor workers at once, and funneling
        # them all through one registry-wide lock serializes unrelated
        # metrics against each other (exposition never needs more than
        # per-child consistency — each child's fields are read whole)
        child_lock = threading.Lock()
        if self.kind == COUNTER:
            return Counter(labelvalues, child_lock)
        if self.kind == GAUGE:
            return Gauge(labelvalues, child_lock)
        return Histogram(labelvalues, self.buckets, child_lock)

    def labels(self, **labels: Any):
        """The child for one label-value combination (created on demand)."""
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"{self.name} takes labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}"
            )
        values = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    if len(self._children) >= MAX_LABEL_SETS:
                        raise MetricError(
                            f"{self.name} exceeded {MAX_LABEL_SETS} label"
                            f" sets; label values look unbounded"
                        )
                    child = self._make_child(values)
                    self._children[values] = child
        return child

    def _unlabeled(self):
        if self.labelnames:
            raise MetricError(
                f"{self.name} requires labels {self.labelnames}; use .labels()"
            )
        child = self._default
        if child is None:
            child = self._default = self._children.setdefault(
                (), self._make_child(())
            )
        return child

    # unlabeled shortcuts -------------------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    def set(self, value: float) -> None:
        self._unlabeled().set(value)

    def observe(self, value: float) -> None:
        self._unlabeled().observe(value)

    def children(self) -> list[Any]:
        """All children, ordered by label values (stable exposition)."""
        return [self._children[key] for key in sorted(self._children)]


class MetricsRegistry:
    """A process-local collection of metric families.

    >>> registry = MetricsRegistry()
    >>> registry.counter("demo_total", "demo").inc()
    >>> registry.counter("demo_total").inc(2)
    >>> registry.get_value("demo_total")
    3.0
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        # hot-path caches: metric name -> unlabeled child, one dict per
        # kind so a kind mismatch still surfaces as a MetricError via
        # the family lookup instead of an AttributeError on the child.
        # repro.obs.runtime's inc/observe/gauge_set fill these so the
        # per-call cost is one dict get + one child method call.
        self._fast_counters: dict[str, Counter] = {}
        self._fast_gauges: dict[str, Gauge] = {}
        self._fast_histograms: dict[str, Histogram] = {}
        #: labeled children memoized by (name, *sorted label items) —
        #: the runtime facade's hot path skips family + child resolution
        self._fast_labeled: dict[tuple, Any] = {}
        #: brings the families that are views of state held elsewhere
        #: (the counter sets) up to date; every read below runs it
        #: first, so no reader can see them stale.  None once the
        #: session that installed it has ended (see :meth:`freeze`)
        self.live_source: Optional[Callable[[], None]] = None

    def _refresh(self) -> None:
        source = self.live_source
        if source is not None:
            source()

    def freeze(self) -> None:
        """Take the live families' final values and stop following
        their source (the end of an observability session)."""
        self._refresh()
        self.live_source = None

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]],
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise MetricError(
                    f"{name} already registered as a {family.kind}, not {kind}"
                )
            if family.labelnames != tuple(labelnames):
                raise MetricError(
                    f"{name} already registered with labels "
                    f"{family.labelnames}, not {tuple(labelnames)}"
                )
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name,
                    kind,
                    help_text,
                    tuple(labelnames),
                    tuple(buckets) if buckets is not None else DEFAULT_BUCKETS,
                    self._lock,
                )
                self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, COUNTER, help_text, labelnames, None)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, GAUGE, help_text, labelnames, None)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self._family(name, HISTOGRAM, help_text, labelnames, buckets)

    # introspection -------------------------------------------------------
    def families(self) -> list[MetricFamily]:
        self._refresh()
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        self._refresh()
        return self._families.get(name)

    def get_value(self, name: str, **labels: Any) -> Optional[float]:
        """A counter/gauge child's current value (None when absent)."""
        self._refresh()
        family = self._families.get(name)
        if family is None:
            return None
        values = tuple(str(labels[n]) for n in family.labelnames)
        child = family._children.get(values)
        return child.value if child is not None else None

    def reset(self) -> None:
        """Drop every family (tests and fresh CLI runs)."""
        with self._lock:
            self._families.clear()
            self._fast_counters.clear()
            self._fast_gauges.clear()
            self._fast_histograms.clear()
            self._fast_labeled.clear()

    # exposition ----------------------------------------------------------
    @staticmethod
    def _label_str(labelnames: Iterable[str], labelvalues: Iterable[str],
                   extra: str = "") -> str:
        parts = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(labelnames, labelvalues)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                labels = self._label_str(family.labelnames, child.labels)
                if family.kind == HISTOGRAM:
                    for bound, count in child.cumulative_buckets():
                        le = "+Inf" if bound == float("inf") else _format_value(bound)
                        bucket_labels = self._label_str(
                            family.labelnames, child.labels, f'le="{le}"'
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {count}"
                        )
                    lines.append(
                        f"{family.name}_sum{labels} {_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{labels} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{labels} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def to_json_obj(self) -> dict[str, Any]:
        """The registry as one JSON-ready document."""
        metrics = []
        for family in self.families():
            samples: list[dict[str, Any]] = []
            for child in family.children():
                labels = dict(zip(family.labelnames, child.labels))
                if family.kind == HISTOGRAM:
                    samples.append({
                        "labels": labels,
                        "buckets": [
                            ["+Inf" if le == float("inf") else le, count]
                            for le, count in child.cumulative_buckets()
                        ],
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            metrics.append({
                "name": family.name,
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            })
        return {"metrics": metrics}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_obj(), indent=indent)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    """Integral floats print as integers, the Prometheus convention."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
