"""Metrics federation: one cluster-level view over per-process registries.

The registry (:mod:`repro.obs.registry`) is strictly per-process; the
cluster is not.  This module defines the **observability document** a
process exposes over the wire (the ``obs`` verb — its registry
in JSON exposition plus bounded trace digests) and the merge that folds
many such documents into one federated view:

* every sample gains a ``node`` label naming its source, so per-node
  detail survives aggregation;
* counters and gauges are additionally **summed** across sources, and
  histograms with identical bucket bounds are merged bucket-wise — the
  cluster-level distributions the SLO layer evaluates;
* sources that could not be scraped appear as explicitly
  **unreachable** (with the transport error), and documents older than
  ``stale_after_s`` are marked **stale** — a federated view never
  silently pretends a missing node contributed zeros.

The router's ``obs`` fan-out builds the document list (its own document
plus one per serving node); ``python -m repro obs --cluster`` and the
fleet Prometheus endpoint render the merged view; ``repro.obs.slo``
consumes it for burn-rate evaluation.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.obs import runtime

_INF = float("inf")


# ---------------------------------------------------------------------------
# per-process documents
# ---------------------------------------------------------------------------
def local_obs_document(name: str, tier: str = "node") -> dict[str, Any]:
    """This process's observability document (the ``obs`` verb body).

    With observability disabled the document still identifies the
    source — federation renders it as enabled=false rather than
    inventing zeros.
    """
    document: dict[str, Any] = {
        "name": name,
        "tier": tier,
        "collected_at": time.time(),
        "enabled": False,
    }
    state = runtime.state()
    if state is None:
        return document
    document["enabled"] = True
    document["registry"] = state.registry.to_json_obj()
    document["events_dropped"] = state.events.dropped
    tracer = state.tracer
    if tracer is not None:
        document["traces"] = {
            "top_spans": [
                [span_name, count, total_s]
                for span_name, count, total_s in tracer.top_spans(10)
            ],
            "slow_ops": list(tracer.slow_ops),
            "roots_finished": tracer.roots_finished,
            "traces_dropped": tracer.traces_dropped,
        }
    return document


def unreachable_document(
    name: str, error: str, tier: str = "node"
) -> dict[str, Any]:
    """The placeholder document for a source that could not be scraped."""
    return {
        "name": name,
        "tier": tier,
        "collected_at": time.time(),
        "enabled": False,
        "unreachable": True,
        "error": error,
    }


# ---------------------------------------------------------------------------
# bucket arithmetic
# ---------------------------------------------------------------------------
def _le_value(le: Any) -> float:
    return _INF if le in ("+Inf", None) else float(le)


def quantile_from_buckets(
    pairs: Sequence[tuple[float, float]], q: float
) -> Optional[float]:
    """Estimate the q-quantile from cumulative ``(le, count)`` pairs.

    Prometheus ``histogram_quantile`` semantics: linear interpolation
    inside the bucket the target rank falls in; a rank landing in the
    ``+Inf`` bucket answers the highest finite bound (the estimate is
    a floor, not a guess).  None when the histogram is empty.
    """
    if not pairs:
        return None
    total = pairs[-1][1]
    if total <= 0:
        return None
    target = q * total
    previous_bound = 0.0
    previous_cumulative = 0.0
    for bound, cumulative in pairs:
        if cumulative >= target:
            if bound == _INF or cumulative == previous_cumulative:
                return previous_bound
            fraction = (target - previous_cumulative) / (
                cumulative - previous_cumulative
            )
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound = bound
        previous_cumulative = cumulative
    return previous_bound


def _sum_cumulative(
    bucket_lists: list[list[tuple[float, float]]],
) -> Optional[list[tuple[float, float]]]:
    """Element-wise sum of cumulative bucket lists; None on a bounds
    mismatch (histograms with different bucket presets cannot be merged
    without lying about where observations fell)."""
    if not bucket_lists:
        return None
    bounds = [le for le, _count in bucket_lists[0]]
    merged = [0.0] * len(bounds)
    for pairs in bucket_lists:
        if [le for le, _count in pairs] != bounds:
            return None
        for index, (_le, count) in enumerate(pairs):
            merged[index] += count
    return list(zip(bounds, merged))


# ---------------------------------------------------------------------------
# the federated view
# ---------------------------------------------------------------------------
class FederatedView:
    """Many observability documents folded into one cluster view.

    Build with :func:`merge_documents`.  ``sources`` keeps one status
    row per document (reachability, staleness, age); ``families`` holds
    every metric family with per-source ``node`` labels on each sample;
    the ``merged_*`` accessors answer cluster-level questions (summed
    counters, bucket-wise merged histograms, estimated quantiles).
    """

    def __init__(self, stale_after_s: float, now: Optional[float] = None):
        self.stale_after_s = stale_after_s
        self.collected_at = now if now is not None else time.time()
        #: per-document status: name, tier, enabled, unreachable, stale,
        #: age_s, error
        self.sources: list[dict[str, Any]] = []
        #: family name -> {"type", "help", "samples": [sample]} where
        #: every sample's labels include the source's ``node``
        self.families: dict[str, dict[str, Any]] = {}
        #: per-source trace digests (bounded, straight from the docs)
        self.traces: dict[str, dict[str, Any]] = {}
        #: family names whose histograms could not be bucket-merged
        #: because sources disagreed on bounds
        self.mixed_bucket_families: set[str] = set()

    # -- construction ------------------------------------------------------
    def _add_document(self, document: dict[str, Any]) -> None:
        name = str(document.get("name", f"source-{len(self.sources)}"))
        unreachable = bool(document.get("unreachable"))
        collected = document.get("collected_at")
        age_s = (
            max(0.0, self.collected_at - collected)
            if isinstance(collected, (int, float)) and not unreachable
            else None
        )
        status: dict[str, Any] = {
            "name": name,
            "tier": document.get("tier", "node"),
            "enabled": bool(document.get("enabled")),
            "unreachable": unreachable,
            "stale": age_s is not None and age_s > self.stale_after_s,
            "age_s": round(age_s, 3) if age_s is not None else None,
        }
        if document.get("error"):
            status["error"] = str(document["error"])
        self.sources.append(status)
        if unreachable:
            return
        traces = document.get("traces")
        if isinstance(traces, dict):
            self.traces[name] = traces
        registry = document.get("registry")
        if not isinstance(registry, dict):
            return
        for family in registry.get("metrics", ()):
            if not isinstance(family, dict) or "name" not in family:
                continue
            merged = self.families.setdefault(family["name"], {
                "type": family.get("type", "untyped"),
                "help": family.get("help", ""),
                "samples": [],
            })
            for sample in family.get("samples", ()):
                if not isinstance(sample, dict):
                    continue
                labeled = dict(sample)
                labeled["labels"] = {
                    **sample.get("labels", {}), "node": name,
                }
                merged["samples"].append(labeled)

    @classmethod
    def from_json_obj(
        cls, document: dict[str, Any], stale_after_s: float = 60.0
    ) -> "FederatedView":
        """Rebuild a view from :meth:`to_json_obj` output.

        This is how ``repro obs --cluster`` turns the router's wire
        answer (the already-merged document) back into a queryable
        view; samples keep the ``node`` labels stamped at merge time.
        """
        collected = document.get("collected_at")
        view = cls(
            stale_after_s=stale_after_s,
            now=collected if isinstance(collected, (int, float)) else None,
        )
        for source in document.get("sources", ()):
            if isinstance(source, dict):
                view.sources.append(dict(source))
        for family in document.get("metrics", ()):
            if not isinstance(family, dict) or "name" not in family:
                continue
            view.families[family["name"]] = {
                "type": family.get("type", "untyped"),
                "help": family.get("help", ""),
                "samples": [
                    dict(sample) for sample in family.get("samples", ())
                    if isinstance(sample, dict)
                ],
            }
        traces = document.get("traces")
        if isinstance(traces, dict):
            view.traces = dict(traces)
        return view

    # -- cluster-level accessors ------------------------------------------
    @property
    def unreachable(self) -> list[str]:
        return [s["name"] for s in self.sources if s["unreachable"]]

    @property
    def stale(self) -> list[str]:
        return [s["name"] for s in self.sources if s["stale"]]

    def _samples(
        self, name: str, labels: dict[str, Any]
    ) -> list[dict[str, Any]]:
        family = self.families.get(name)
        if family is None:
            return []
        wanted = {key: str(value) for key, value in labels.items()}
        return [
            sample for sample in family["samples"]
            if all(
                str(sample["labels"].get(key)) == value
                for key, value in wanted.items()
            )
        ]

    def counter_total(self, name: str, **labels: Any) -> float:
        """Sum of matching counter/gauge samples across the cluster."""
        return float(sum(
            sample.get("value", 0.0) for sample in self._samples(name, labels)
        ))

    def merged_histogram(
        self, name: str, **labels: Any
    ) -> Optional[dict[str, Any]]:
        """Bucket-wise sum of matching histogram samples.

        Returns ``{"buckets": [(le, cumulative)], "sum": float,
        "count": float}`` — or None when nothing matched or the sources
        disagree on bucket bounds (then recorded in
        ``mixed_bucket_families``; per-node samples remain available).
        """
        samples = [
            sample for sample in self._samples(name, labels)
            if "buckets" in sample
        ]
        if not samples:
            return None
        merged = _sum_cumulative([
            [(_le_value(le), count) for le, count in sample["buckets"]]
            for sample in samples
        ])
        if merged is None:
            self.mixed_bucket_families.add(name)
            return None
        return {
            "buckets": merged,
            "sum": float(sum(sample.get("sum", 0.0) for sample in samples)),
            "count": float(sum(sample.get("count", 0) for sample in samples)),
        }

    def histogram_counts(
        self, name: str, le: float, **labels: Any
    ) -> tuple[float, float]:
        """``(observations ≤ le, total observations)`` cluster-wide.

        The good count is read at the largest bucket bound that does not
        exceed *le* — a conservative floor when *le* falls between
        bounds (an SLO must not count an observation as fast on the
        strength of interpolation).
        """
        merged = self.merged_histogram(name, **labels)
        if merged is None:
            # bounds mismatch or no samples: fall back to summing the
            # per-sample reading so mixed clusters still get a floor
            good = 0.0
            total = 0.0
            for sample in self._samples(name, labels):
                if "buckets" not in sample:
                    continue
                pairs = [
                    (_le_value(bound), count)
                    for bound, count in sample["buckets"]
                ]
                good += _count_at(pairs, le)
                total += sample.get("count", 0)
            return good, total
        return _count_at(merged["buckets"], le), merged["count"]

    def quantile(
        self, name: str, q: float, **labels: Any
    ) -> Optional[float]:
        """Estimated q-quantile of a cluster-merged histogram."""
        merged = self.merged_histogram(name, **labels)
        if merged is None:
            return None
        return quantile_from_buckets(merged["buckets"], q)

    # -- exposition --------------------------------------------------------
    def to_json_obj(self) -> dict[str, Any]:
        return {
            "collected_at": self.collected_at,
            "sources": list(self.sources),
            "unreachable": self.unreachable,
            "stale": self.stale,
            "metrics": [
                {
                    "name": name,
                    "type": family["type"],
                    "help": family["help"],
                    "samples": family["samples"],
                }
                for name, family in sorted(self.families.items())
            ],
            "traces": self.traces,
        }

    def to_prometheus(self) -> str:
        """The fleet in Prometheus text format, one ``node`` label per
        sample plus an ``repro_cluster_node_up`` row per source."""
        lines: list[str] = []
        lines.append(
            "# HELP repro_cluster_node_up 1 when the node's observability"
            " document was scraped, 0 when unreachable"
        )
        lines.append("# TYPE repro_cluster_node_up gauge")
        for source in self.sources:
            up = 0 if source["unreachable"] else 1
            lines.append(
                f'repro_cluster_node_up{{node="{source["name"]}",'
                f'tier="{source["tier"]}"}} {up}'
            )
        for name, family in sorted(self.families.items()):
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['type']}")
            for sample in family["samples"]:
                label_str = ",".join(
                    f'{key}="{_escape(str(value))}"'
                    for key, value in sorted(sample["labels"].items())
                )
                if "buckets" in sample:
                    for le, count in sample["buckets"]:
                        bound = "+Inf" if _le_value(le) == _INF else le
                        lines.append(
                            f'{name}_bucket{{{label_str},le="{bound}"}} '
                            f"{_fmt(count)}"
                        )
                    lines.append(
                        f"{name}_sum{{{label_str}}} "
                        f"{_fmt(sample.get('sum', 0.0))}"
                    )
                    lines.append(
                        f"{name}_count{{{label_str}}} "
                        f"{_fmt(sample.get('count', 0))}"
                    )
                else:
                    lines.append(
                        f"{name}{{{label_str}}} "
                        f"{_fmt(sample.get('value', 0.0))}"
                    )
        return "\n".join(lines) + "\n"


def _count_at(pairs: Sequence[tuple[float, float]], le: float) -> float:
    """Cumulative count at the largest bound ≤ *le* (0 below the first)."""
    count = 0.0
    for bound, cumulative in pairs:
        if bound <= le:
            count = cumulative
        else:
            break
    return count


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def merge_documents(
    documents: Iterable[dict[str, Any]],
    stale_after_s: float = 60.0,
    now: Optional[float] = None,
) -> FederatedView:
    """Fold observability documents into one :class:`FederatedView`."""
    view = FederatedView(stale_after_s=stale_after_s, now=now)
    for document in documents:
        if isinstance(document, dict):
            view._add_document(document)
    return view


def scrape_cluster(
    request: Callable[[str], dict[str, Any]],
    names: Sequence[str],
    stale_after_s: float = 60.0,
) -> FederatedView:
    """Scrape *names* through a caller-supplied request function.

    ``request(name)`` must return the source's observability document
    or raise; a raise becomes an explicit unreachable marker.  The
    router uses its own async fan-out instead; this helper serves
    tests and synchronous collectors.
    """
    documents: list[dict[str, Any]] = []
    for name in names:
        try:
            documents.append(request(name))
        except Exception as err:  # noqa: BLE001 - any failure = unreachable
            documents.append(unreachable_document(name, str(err)))
    return merge_documents(documents, stale_after_s=stale_after_s)
