"""The *predict/decide* stages: candidate layouts ranked by predicted cost.

Two advisors live here:

* :func:`advise` — the offline B/w grid advisor: trial partitionings
  over a data sample scored by Definition 1 efficiency minus a
  partition-count penalty.  The DBA's one-shot tool.
* :func:`advise_adaptation` — the online advisor of the closed loop: it
  prices the *current* layout and a set of candidate layouts against
  the observed query profile using the (calibrated) cost model, and
  emits ranked :class:`AdaptationPlan`\\ s whose predicted win already
  amortizes the physical cost of getting there.

The online advisor works on :class:`LayoutSketch`\\ es — per-partition
``(mask, entities, size)`` triples — because that is all the cost model
needs: Definition 1's numerator (the relevant data) is *layout
independent*, so ranking layouts only requires predicting what each one
*reads*.  Candidate layouts come from the existing rating machinery: a
bounded sample of the live entity masks is replayed through a fresh
:class:`~repro.core.partitioner.CinderellaPartitioner` under each
candidate ``(w, B)``, so splits happen exactly as they would online; a
merge candidate simulates the maintenance merger's bin-packing at the
synopsis level.

The recommendation contract (pinned by a Hypothesis property): the best
plan is either ``keep`` or has a strictly positive predicted win — the
advisor never recommends a plan whose predicted cost, including the
amortized reorganization, exceeds the current layout's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.config import CinderellaConfig
from repro.core.efficiency import catalog_efficiency
from repro.core.partitioner import CinderellaPartitioner
from repro.cost.model import CostModel
from repro.query.executor import ExecutionStats

#: default candidate grids, spanning the paper's studied ranges
DEFAULT_WEIGHTS = (0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_SIZE_FRACTIONS = (0.01, 0.025, 0.05, 0.25)

#: candidate grid of the online advisor — tighter than the offline
#: grid because every candidate costs a sample replay under the lock
ADAPT_WEIGHTS = (0.2, 0.3, 0.5)
ADAPT_SIZE_FRACTIONS = (0.02, 0.05, 0.25)


# ----------------------------------------------------------------------
# the offline grid advisor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Trial:
    """One evaluated candidate configuration."""

    weight: float
    max_partition_size: float
    efficiency: float
    partition_count: int
    score: float


@dataclass(frozen=True)
class AdvisorReport:
    """The recommendation plus every trial behind it."""

    recommended: CinderellaConfig
    trials: tuple[Trial, ...]
    sample_size: int
    rationale: str

    def best_trial(self) -> Trial:
        return max(self.trials, key=lambda t: t.score)


def advise(
    entity_masks: Sequence[int],
    query_masks: Optional[Sequence[int]] = None,
    weights: Sequence[float] = DEFAULT_WEIGHTS,
    size_fractions: Sequence[float] = DEFAULT_SIZE_FRACTIONS,
    sample_limit: int = 5_000,
    partition_penalty: float = 0.5,
) -> AdvisorReport:
    """Recommend a :class:`CinderellaConfig` for a data set.

    Args:
        entity_masks: synopsis masks of the (sampled) entities.
        query_masks: the workload, when known; without one, every
            instantiated attribute becomes a single-attribute probe query
            (the workload-agnostic reading of Definition 1).
        weights: candidate ``w`` values.
        size_fractions: candidate ``B`` values as fractions of the data
            set size (so the advice scales with the table).
        sample_limit: trials run on at most this many entities.
        partition_penalty: score deduction proportional to the
            partition-to-entity ratio — the stand-in for catalog scan and
            UNION ALL overhead that pure efficiency ignores (the paper:
            smaller partitions always raise efficiency but "increase the
            total number of partitions and thereby the overhead").

    Returns:
        An :class:`AdvisorReport` with the winning configuration and all
        trial scores, highest first.
    """
    if not entity_masks:
        raise ValueError("cannot advise on an empty data set")
    if not weights or not size_fractions:
        raise ValueError("need at least one candidate weight and size")
    sample = list(entity_masks[:sample_limit])

    if query_masks is None:
        universe = 0
        for mask in sample:
            universe |= mask
        probes = []
        remaining = universe
        while remaining:
            low = remaining & -remaining
            probes.append(low)
            remaining ^= low
        query_masks = probes

    trials: list[Trial] = []
    total = len(entity_masks)
    for weight in weights:
        for fraction in size_fractions:
            max_size = max(2.0, round(fraction * total))
            trial_size = max(2.0, round(fraction * len(sample)))
            partitioner = CinderellaPartitioner(
                CinderellaConfig(max_partition_size=trial_size, weight=weight)
            )
            for eid, mask in enumerate(sample):
                partitioner.insert(eid, mask)
            efficiency = catalog_efficiency(partitioner.catalog, query_masks)
            count = len(partitioner.catalog)
            score = efficiency - partition_penalty * count / len(sample)
            trials.append(
                Trial(
                    weight=weight,
                    max_partition_size=max_size,
                    efficiency=efficiency,
                    partition_count=count,
                    score=score,
                )
            )
    trials.sort(key=lambda t: (-t.score, t.max_partition_size, t.weight))
    best = trials[0]
    rationale = (
        f"best of {len(trials)} trials on a {len(sample)}-entity sample: "
        f"efficiency {best.efficiency:.3f} with {best.partition_count} "
        f"partitions (score {best.score:.3f}); paper guidance: weights "
        f"0.2-0.5 are reasonable, lower B favours selective workloads"
    )
    return AdvisorReport(
        recommended=CinderellaConfig(
            max_partition_size=best.max_partition_size, weight=best.weight
        ),
        trials=tuple(trials),
        sample_size=len(sample),
        rationale=rationale,
    )


# ----------------------------------------------------------------------
# the online cost-based advisor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayoutSketch:
    """A layout reduced to what the cost model needs.

    ``partitions`` holds one ``(mask, entities, size)`` triple per
    partition.  ``scale`` multiplies entity counts when the sketch was
    built from a sample replay (the candidate has ``entities * scale``
    records once the whole table is reorganized under it).
    """

    partitions: tuple[tuple[int, int, float], ...]
    scale: float = 1.0

    @classmethod
    def from_catalog(cls, catalog, scale: float = 1.0) -> "LayoutSketch":
        return cls(
            partitions=tuple(
                (p.mask, len(p), p.total_size) for p in catalog
            ),
            scale=scale,
        )

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    @property
    def entity_count(self) -> float:
        return self.scale * sum(n for _mask, n, _size in self.partitions)


def predicted_workload_ms(
    sketch: LayoutSketch,
    profile: Mapping[int, float],
    model: CostModel,
    records_per_page: float = 64.0,
) -> float:
    """Predicted cost of running the traced workload once over a layout.

    Per profiled mask (weight = observed multiplicity): the surviving
    partitions are those whose synopsis overlaps the mask (``any``-mode
    pruning — the conservative bound for ``all`` queries), each read in
    full.  Rows returned are layout-independent (Definition 1's
    numerator), so they cancel in any layout comparison and are priced
    as zero here.
    """
    if not sketch.partitions:
        return 0.0
    total_ms = 0.0
    scale = sketch.scale
    for mask, weight in profile.items():
        if weight <= 0.0:
            continue
        entities = 0
        pages = 0
        branches = 0
        for part_mask, count, _size in sketch.partitions:
            if part_mask & mask:
                branches += 1
                scaled = count * scale
                entities += scaled
                pages += math.ceil(scaled / max(records_per_page, 1.0))
        stats = ExecutionStats(
            partitions_total=len(sketch.partitions),
            partitions_scanned=branches,
            entities_read=int(entities),
            pages_read=pages,
            union_branches=branches,
        )
        total_ms += weight * model.query_time_ms(stats)
    return total_ms


@dataclass(frozen=True)
class AdaptationPlan:
    """One candidate action with its predicted economics.

    ``predicted_current_ms`` / ``predicted_plan_ms`` are per *average
    traced query* (the workload-pass prediction divided by the profile's
    total weight); ``predicted_win_ms`` already subtracts the physical
    cost of the action amortized over ``horizon_queries``.
    """

    kind: str  # "keep" | "reorganize" | "merge"
    config: Optional[CinderellaConfig]
    predicted_current_ms: float
    predicted_plan_ms: float
    reorg_cost_ms: float
    predicted_win_ms: float
    win_fraction: float
    partitions_before: int
    partitions_after: int
    rationale: str

    def as_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "weight": None if self.config is None else self.config.weight,
            "max_partition_size": (
                None if self.config is None
                else self.config.max_partition_size
            ),
            "predicted_current_ms": round(self.predicted_current_ms, 4),
            "predicted_plan_ms": round(self.predicted_plan_ms, 4),
            "reorg_cost_ms": round(self.reorg_cost_ms, 2),
            "predicted_win_ms": round(self.predicted_win_ms, 4),
            "win_fraction": round(self.win_fraction, 4),
            "partitions_before": self.partitions_before,
            "partitions_after": self.partitions_after,
            "rationale": self.rationale,
        }


@dataclass(frozen=True)
class AdaptationReport:
    """Ranked plans; ``best`` is never a predicted loss."""

    best: AdaptationPlan
    plans: tuple[AdaptationPlan, ...]
    evaluated: int
    profile_shapes: int

    def as_dict(self) -> dict[str, object]:
        return {
            "best": self.best.as_dict(),
            "plans": [plan.as_dict() for plan in self.plans],
            "evaluated": self.evaluated,
            "profile_shapes": self.profile_shapes,
        }


def _merge_sketch(
    current: LayoutSketch, max_size: float, min_fill: float
) -> tuple[LayoutSketch, int]:
    """Simulate the maintenance merger's bin-packing on a sketch.

    Returns the merged sketch plus the number of entities that would
    move (everything except the largest member of each bin).
    """
    threshold = min_fill * max_size
    underfilled = [
        entry for entry in current.partitions if entry[2] < threshold
    ]
    kept = [entry for entry in current.partitions if entry[2] >= threshold]
    if len(underfilled) < 2:
        return current, 0
    underfilled.sort(key=lambda entry: entry[2])
    bins: list[list[tuple[int, int, float]]] = []
    for entry in underfilled:
        placed = False
        for group in bins:
            if sum(e[2] for e in group) + entry[2] <= max_size:
                group.append(entry)
                placed = True
                break
        if not placed:
            bins.append([entry])
    moved = 0
    merged = list(kept)
    for group in bins:
        if len(group) == 1:
            merged.append(group[0])
            continue
        mask = 0
        count = 0
        size = 0.0
        for m, n, s in group:
            mask |= m
            count += n
            size += s
        largest = max(group, key=lambda e: e[1])
        moved += count - largest[1]
        merged.append((mask, count, size))
    return LayoutSketch(tuple(merged), scale=current.scale), moved


def advise_adaptation(
    entity_masks: Sequence[int],
    current: LayoutSketch,
    profile: Mapping[int, float],
    model: Optional[CostModel] = None,
    *,
    current_config: Optional[CinderellaConfig] = None,
    weights: Sequence[float] = ADAPT_WEIGHTS,
    size_fractions: Sequence[float] = ADAPT_SIZE_FRACTIONS,
    merge_min_fill: float = 0.25,
    records_per_page: float = 64.0,
    avg_record_bytes: float = 64.0,
    sample_limit: int = 10_000,
    horizon_queries: float = 2_000.0,
) -> AdaptationReport:
    """Rank candidate layouts against the current one by predicted cost.

    Args:
        entity_masks: synopsis masks of the live entities (candidate
            layouts are built by replaying a bounded sample of these
            through the rating machinery).
        current: sketch of the live layout.
        profile: observed mask -> weight query profile (the trace
            store's :meth:`~repro.adapt.trace.WorkloadTraceStore.profile`).
        model: the (calibrated) cost model; defaults to the priors.
        current_config: the live configuration — used to skip the
            no-op candidate and to price the merge candidate.
        merge_min_fill: fill threshold of the merge candidate.
        records_per_page: page-granularity estimate for the scan term.
        avg_record_bytes: mean serialized record size, for move costs.
        sample_limit: candidate replays use at most this many entities.
        horizon_queries: the physical action cost is amortized over this
            many future queries before being compared to the win.

    Returns:
        An :class:`AdaptationReport`; ``best.kind == "keep"`` when no
        candidate clears its amortized cost.
    """
    if model is None:
        model = CostModel()
    total = len(entity_masks)
    total_weight = sum(w for w in profile.values() if w > 0.0)
    current_pass_ms = predicted_workload_ms(
        current, profile, model, records_per_page
    )
    per_query = (
        current_pass_ms / total_weight if total_weight > 0.0 else 0.0
    )
    keep = AdaptationPlan(
        kind="keep",
        config=current_config,
        predicted_current_ms=per_query,
        predicted_plan_ms=per_query,
        reorg_cost_ms=0.0,
        predicted_win_ms=0.0,
        win_fraction=0.0,
        partitions_before=current.partition_count,
        partitions_after=current.partition_count,
        rationale="no candidate clears its amortized reorganization cost",
    )
    if total == 0 or total_weight <= 0.0 or per_query <= 0.0:
        return AdaptationReport(
            best=keep, plans=(keep,), evaluated=0,
            profile_shapes=len(profile),
        )

    winners: list[AdaptationPlan] = []
    evaluated = 0

    def consider(
        kind: str,
        sketch: LayoutSketch,
        config: Optional[CinderellaConfig],
        entities_moved: float,
        partitions_created: int,
        note: str,
    ) -> None:
        nonlocal evaluated
        evaluated += 1
        plan_pass_ms = predicted_workload_ms(
            sketch, profile, model, records_per_page
        )
        plan_per_query = plan_pass_ms / total_weight
        action_ms = (
            model.record_move_ms * entities_moved
            + model.byte_move_ms * entities_moved * avg_record_bytes
            + model.partition_create_ms * partitions_created
        )
        amortized = action_ms / max(horizon_queries, 1.0)
        win = per_query - plan_per_query - amortized
        if win <= 0.0:
            return
        winners.append(AdaptationPlan(
            kind=kind,
            config=config,
            predicted_current_ms=per_query,
            predicted_plan_ms=plan_per_query + amortized,
            reorg_cost_ms=action_ms,
            predicted_win_ms=win,
            win_fraction=win / per_query,
            partitions_before=current.partition_count,
            partitions_after=sketch.partition_count,
            rationale=note,
        ))

    sample = list(entity_masks[:sample_limit])
    scale = total / len(sample)
    skip = (
        None if current_config is None
        else (current_config.weight, current_config.max_partition_size)
    )
    for weight in weights:
        for fraction in size_fractions:
            max_size = max(2.0, round(fraction * total))
            if skip is not None and skip == (weight, max_size):
                continue
            trial_size = max(2.0, round(fraction * len(sample)))
            partitioner = CinderellaPartitioner(
                CinderellaConfig(
                    max_partition_size=trial_size, weight=weight
                )
            )
            for eid, mask in enumerate(sample):
                partitioner.insert(eid, mask)
            sketch = LayoutSketch.from_catalog(
                partitioner.catalog, scale=scale
            )
            consider(
                "reorganize",
                sketch,
                CinderellaConfig(
                    max_partition_size=max_size, weight=weight
                ),
                entities_moved=float(total),
                partitions_created=sketch.partition_count,
                note=(
                    f"replayed {len(sample)}/{total} entities under "
                    f"w={weight}, B={max_size:g}: "
                    f"{sketch.partition_count} partitions"
                ),
            )
    if current_config is not None:
        merged, moved = _merge_sketch(
            current, current_config.max_partition_size, merge_min_fill
        )
        if moved:
            consider(
                "merge",
                merged,
                current_config,
                entities_moved=float(moved),
                partitions_created=0,
                note=(
                    f"merge under-filled partitions: "
                    f"{current.partition_count} -> {merged.partition_count}"
                ),
            )

    winners.sort(key=lambda plan: -plan.predicted_win_ms)
    plans = tuple(winners) + (keep,)
    return AdaptationReport(
        best=plans[0],
        plans=plans,
        evaluated=evaluated,
        profile_shapes=len(profile),
    )
