"""The *act* stage: hysteresis-gated repartitioning decisions.

The :class:`AdaptationController` closes the loop.  It owns a
:class:`~repro.adapt.trace.WorkloadTraceStore` (fed by the table hook
and the server's read path), an
:class:`~repro.cost.calibrate.OnlineCalibrator` (fed by measured
executions and by bounded probe runs), and a decision pipeline run from
the server's background-maintenance slot — or standalone, driven by any
loop that calls :meth:`maybe_adapt`.

A decision walks gates in order, and every early exit is a typed,
observable "declined":

1. ``insufficient_traffic`` — fewer than ``min_observations`` queries.
2. ``budget_exhausted`` — the bounded action budget is spent.
3. ``cooldown`` — the last action is too recent.
4. ``baseline_established`` — the first eligible evaluation only
   blesses the current profile as the reference; the controller *never*
   acts before a measured shift, which is what makes a stationary
   workload provably reorganization-free.
5. ``no_shift`` — the live profile is within :data:`SHIFT_THRESHOLD`
   (total-variation distance) of the blessed reference.
6. ``below_threshold`` — the advisor's best plan does not clear
   :data:`MIN_WIN_FRACTION` of the current predicted cost (hysteresis).

Only then does it act: ``reorganize`` through
:meth:`~repro.table.partitioned.CinderellaTable.reorganize` under the
advisor's winning config, or ``merge`` through the maintenance merger.
After acting it re-blesses the reference profile and clears partition
heat (pids changed), so an unchanged workload immediately quiesces.

Every decision — acted or declined — increments a typed counter, emits
an ``adapt.decision`` event, and runs inside an ``adapt.evaluate`` span.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.adapt.advisor import (
    ADAPT_SIZE_FRACTIONS,
    ADAPT_WEIGHTS,
    AdaptationPlan,
    AdaptationReport,
    LayoutSketch,
    advise_adaptation,
)
from repro.adapt.trace import WorkloadTraceStore, profile_shift
from repro.cost.calibrate import CalibrationSample, OnlineCalibrator
from repro.cost.model import CostModel
from repro.obs import runtime as obs
from repro.obs.counters import AdaptationCounters
from repro.query.executor import execute_union_all
from repro.query.query import AttributeQuery

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.executor import ExecutionResult
    from repro.table.partitioned import CinderellaTable

#: decision reasons, in gate order (docs and tests key off these)
DECLINED_REASONS = (
    "insufficient_traffic",
    "budget_exhausted",
    "cooldown",
    "baseline_established",
    "no_shift",
    "below_threshold",
)
#: gate 5: total-variation distance that counts as a workload shift
SHIFT_THRESHOLD = 0.2
#: gate 6: hysteresis — the best plan's amortized win must be at least
#: this fraction of the current predicted per-query cost
MIN_WIN_FRACTION = 0.1
#: probe budget per calibration pass (each probe runs one pruned and
#: one full scan of the table)
MAX_PROBES = 6


@dataclass
class AdaptationConfig:
    """Tunables of the decision pipeline (see the module docstring)."""

    #: gate 1: queries observed before any decision is attempted
    min_observations: int = 64
    #: physical action cost is amortized over this many future queries
    horizon_queries: float = 2_000.0
    #: gate 3: seconds between actions
    cooldown_s: float = 30.0
    #: gate 2: lifetime action budget (0 = unbounded)
    max_actions: int = 0
    #: candidate grid handed to the advisor
    weights: tuple[float, ...] = ADAPT_WEIGHTS
    size_fractions: tuple[float, ...] = ADAPT_SIZE_FRACTIONS
    #: merge-candidate fill threshold
    merge_min_fill: float = 0.25
    #: candidate replays sample at most this many entities
    sample_limit: int = 10_000
    #: run calibration probes before advising (startup and on drift)
    calibrate: bool = True


@dataclass(frozen=True)
class AdaptationDecision:
    """One decision of the controller, acted or declined."""

    action: str  # "reorganize" | "merge" | "declined"
    reason: str
    shift: float
    queries_observed: int
    plan: Optional[AdaptationPlan] = None
    acted: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "action": self.action,
            "reason": self.reason,
            "shift": round(self.shift, 4),
            "queries_observed": self.queries_observed,
            "acted": self.acted,
            "plan": None if self.plan is None else self.plan.as_dict(),
        }


@dataclass
class _ControllerState:
    """Mutable decision state, guarded by the controller's lock."""

    reference: Optional[dict[int, float]] = None
    last_action_monotonic: Optional[float] = None
    actions_taken: int = 0
    decisions: deque = field(default_factory=lambda: deque(maxlen=64))


class AdaptationController:
    """Observe → predict → decide → act, with every stage observable."""

    def __init__(
        self,
        config: Optional[AdaptationConfig] = None,
        trace: Optional[WorkloadTraceStore] = None,
        model: Optional[CostModel] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else AdaptationConfig()
        self.trace = trace if trace is not None else WorkloadTraceStore()
        self.calibrator = OnlineCalibrator(base=model)
        self.counters = AdaptationCounters()
        self.clock = clock
        self.last_report: Optional[AdaptationReport] = None
        self._state = _ControllerState()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # observation (called from hot paths; must stay cheap)
    # ------------------------------------------------------------------
    def observe_execution(
        self, query: AttributeQuery, result: "ExecutionResult",
        table: "CinderellaTable",
    ) -> None:
        """Feed one embedded-path execution (the table hook calls this)."""
        mask = query.synopsis_mask(table.dictionary)
        pids: tuple[int, ...] = ()
        if result.plan is not None:
            pids = tuple(result.plan.branch_pids)
        self.trace.observe_query(
            mask, pids, version=table.catalog.version_clock,
            exemplar=(query.attributes, query.mode),
        )
        self.calibrator.observe(result.stats)

    def observe_query(
        self,
        mask: int,
        scanned_pids: tuple[int, ...] = (),
        version: int = 0,
        exemplar: Optional[tuple[tuple[str, ...], str]] = None,
    ) -> None:
        """Feed one served query (the server's snapshot read path)."""
        self.trace.observe_query(
            mask, scanned_pids, version=version, exemplar=exemplar
        )

    def observe_write(self, pid: int, version: int = 0) -> None:
        self.trace.observe_write(pid, version=version)

    # ------------------------------------------------------------------
    # the decision pipeline
    # ------------------------------------------------------------------
    def maybe_adapt(
        self, table: "CinderellaTable", act: bool = True
    ) -> AdaptationDecision:
        """Run one decision; apply the winning plan unless *act* is False.

        Must be called from the single-writer context (the server's
        maintenance slot under the write lock, or whatever owns the
        table in embedded use) — an action physically rebuilds heaps.
        """
        with self._lock:
            with obs.span("adapt.evaluate") as span:
                decision = self._decide_locked(table)
                if span.is_recording:
                    span.set("action", decision.action)
                    span.set("reason", decision.reason)
            if act and decision.action != "declined":
                decision = self._apply_locked(table, decision)
            self._record_locked(decision)
        return decision

    def evaluate(self, table: "CinderellaTable") -> AdaptationDecision:
        """Decide without acting (``repro adapt --dry-run``)."""
        return self.maybe_adapt(table, act=False)

    def _decide_locked(self, table: "CinderellaTable") -> AdaptationDecision:
        config = self.config
        state = self._state
        observed = self.trace.queries_observed
        if observed < config.min_observations:
            return AdaptationDecision(
                "declined", "insufficient_traffic", 0.0, observed
            )
        if 0 < config.max_actions <= state.actions_taken:
            return AdaptationDecision(
                "declined", "budget_exhausted", 0.0, observed
            )
        if (
            state.last_action_monotonic is not None
            and self.clock() - state.last_action_monotonic < config.cooldown_s
        ):
            return AdaptationDecision("declined", "cooldown", 0.0, observed)
        profile = self.trace.profile()
        if state.reference is None:
            # first eligible look: bless the current mix as the baseline.
            # Acting here would let a freshly started controller churn a
            # stationary workload; the contract is shift-triggered only.
            state.reference = profile
            return AdaptationDecision(
                "declined", "baseline_established", 0.0, observed
            )
        shift = profile_shift(state.reference, profile)
        obs.gauge_set(
            "repro_adapt_shift_score", shift,
            "Workload shift vs the blessed reference profile (TV distance)",
        )
        if shift < SHIFT_THRESHOLD:
            return AdaptationDecision("declined", "no_shift", shift, observed)
        if config.calibrate:
            self._calibrate_locked(table)
        report = self._advise_locked(table, profile)
        self.last_report = report
        best = report.best
        if best.kind == "keep" or best.win_fraction < MIN_WIN_FRACTION:
            return AdaptationDecision(
                "declined", "below_threshold", shift, observed,
                plan=best if best.kind != "keep" else None,
            )
        return AdaptationDecision(
            best.kind, "predicted_win", shift, observed, plan=best
        )

    def _advise_locked(
        self, table: "CinderellaTable", profile: dict[int, float]
    ) -> AdaptationReport:
        config = self.config
        entity_masks = list(table.entity_masks().values())
        entities = len(entity_masks)
        avg_record_bytes = (
            table.data_bytes() / entities if entities else 64.0
        )
        records_per_page = max(
            1.0, table.page_size / max(avg_record_bytes, 1.0)
        )
        return advise_adaptation(
            entity_masks,
            LayoutSketch.from_catalog(table.catalog),
            profile,
            self.calibrator.model,
            current_config=table.config,
            weights=config.weights,
            size_fractions=config.size_fractions,
            merge_min_fill=config.merge_min_fill,
            records_per_page=records_per_page,
            avg_record_bytes=avg_record_bytes,
            sample_limit=config.sample_limit,
            horizon_queries=config.horizon_queries,
        )

    def _calibrate_locked(self, table: "CinderellaTable") -> None:
        """Probe the live table and refit the model when it has drifted.

        Each probe replays one traced query shape twice — once over the
        pruned plan's surviving partitions, once as the naive full scan,
        both heap scans decoding every record they read — so the fit
        sees both ends of the feature range on this very host.  Sweeps repeat
        (bounded) until the calibrator's fit window has enough samples:
        on the serve path queries come pre-serialized from snapshots, so
        probes are the *only* measured executions the fit ever sees.
        """
        calibrator = self.calibrator
        if calibrator.report is not None and not calibrator.needs_refit():
            return
        shapes = list(self.trace.exemplars().values())[:MAX_PROBES]
        if shapes and len(table):
            heaps = {p.pid: table.heap_of(p.pid) for p in table.catalog}
            with obs.span("adapt.calibrate", probes=len(shapes)):
                for _sweep in range(4):
                    for attributes, mode in shapes:
                        query = AttributeQuery(attributes, mode)
                        pruned = execute_union_all(
                            table.plan(query), heaps, table.dictionary
                        )
                        calibrator.observe_sample(
                            CalibrationSample.from_stats(pruned.stats)
                        )
                        naive = table.execute_naive(query)
                        calibrator.observe_sample(
                            CalibrationSample.from_stats(naive.stats)
                        )
                    if calibrator.sample_count >= calibrator.min_samples:
                        break
        if calibrator.maybe_refit():
            self.counters.calibration_refits += 1
            report = self.calibrator.report
            obs.event(
                "adapt.calibrated",
                samples=report.samples if report else 0,
                r2=round(report.r2, 3) if report else 0.0,
            )

    def _apply_locked(
        self, table: "CinderellaTable", decision: AdaptationDecision
    ) -> AdaptationDecision:
        plan = decision.plan
        assert plan is not None
        state = self._state
        profile = self.trace.profile()
        with obs.span("adapt.apply", kind=decision.action) as span:
            if decision.action == "reorganize":
                table.reorganize(
                    config=plan.config, query_masks=list(profile)
                )
            else:  # merge
                table.merge_small_partitions(
                    min_fill=self.config.merge_min_fill
                )
            if span.is_recording:
                span.set("partitions", table.partition_count())
        state.actions_taken += 1
        state.last_action_monotonic = self.clock()
        # re-bless: the mix that justified this layout is the new
        # reference, so an unchanged workload immediately quiesces
        state.reference = profile
        self.trace.clear_heat()  # pids changed under the action
        return AdaptationDecision(
            decision.action, decision.reason, decision.shift,
            decision.queries_observed, plan=plan, acted=True,
        )

    def _record_locked(self, decision: AdaptationDecision) -> None:
        counters = self.counters
        counters.decisions_total += 1
        if decision.acted:
            if decision.action == "reorganize":
                counters.acted_reorganize += 1
            else:
                counters.acted_merge += 1
        elif decision.action == "declined":
            attr = f"declined_{decision.reason}"
            setattr(counters, attr, getattr(counters, attr) + 1)
        self._state.decisions.append(decision)
        obs.event(
            "adapt.decision",
            action=decision.action,
            reason=decision.reason,
            shift=round(decision.shift, 3),
            queries=decision.queries_observed,
            win_fraction=(
                round(decision.plan.win_fraction, 3)
                if decision.plan is not None else 0.0
            ),
        )

    # ------------------------------------------------------------------
    # exposure
    # ------------------------------------------------------------------
    @property
    def actions_taken(self) -> int:
        return self._state.actions_taken

    def decisions(self) -> list[AdaptationDecision]:
        """Recent decisions, oldest first (bounded)."""
        with self._lock:
            return list(self._state.decisions)

    def bind_table(self, table: "CinderellaTable") -> None:
        """Install this controller as the table's observation hook."""
        table.adapt = self

    def status(self) -> dict[str, Any]:
        """The ``stats`` verb's adaptation document."""
        with self._lock:
            state = self._state
            reference = state.reference
            last = state.decisions[-1] if state.decisions else None
        shift = (
            self.trace.shift_from(reference) if reference is not None else None
        )
        return {
            "trace": self.trace.status(),
            "shift": None if shift is None else round(shift, 4),
            "actions_taken": state.actions_taken,
            "calibration": self.calibrator.status(),
            "counters": self.counters.as_dict(),
            "last_decision": None if last is None else last.as_dict(),
        }
