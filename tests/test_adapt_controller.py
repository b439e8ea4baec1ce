"""Tests of the adaptation controller: gates, actions, observability.

The closed-loop scenario mirrors ``repro adapt``: a deliberately fine
layout (B=30 over grouped entities -> dozens of partitions) serving
selective per-group queries, then a shift to broad scans of the shared
attribute.  The controller must bless the baseline without acting,
quiesce while the mix is stationary, answer the shift with one bounded
reorganization, and quiesce again.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.adapt.controller import (
    DECLINED_REASONS,
    SHIFT_THRESHOLD,
    AdaptationConfig,
    AdaptationController,
)
from repro.core.config import CinderellaConfig
from repro.query.query import AttributeQuery
from repro.table.partitioned import CinderellaTable

GROUPS = 6


class FakeClock:
    def __init__(self):
        self.now = 1_000.0

    def __call__(self):
        return self.now


def build_table(entities=360, max_partition_size=30.0):
    table = CinderellaTable(CinderellaConfig(
        max_partition_size=max_partition_size,
        weight=0.3,
        use_synopsis_index=True,
    ))
    for i in range(entities):
        group = i % GROUPS
        attributes = {"common": i}
        for suffix in ("a", "b", "c"):
            attributes[f"g{group}_{suffix}"] = i
        table.insert(attributes, entity_id=i)
    return table


def selective_queries():
    return [
        AttributeQuery((f"g{group}_{suffix}",), "any")
        for group in range(GROUPS) for suffix in ("a", "b", "c")
    ]


def controller_config(**overrides):
    defaults = dict(
        min_observations=18, cooldown_s=0.0, horizon_queries=500.0
    )
    defaults.update(overrides)
    return AdaptationConfig(**defaults)


def run_round(table, queries):
    for query in queries:
        table.execute(query)


class TestGates:
    def test_insufficient_traffic_before_the_observation_floor(self):
        table = build_table(entities=60)
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        decision = controller.maybe_adapt(table)
        assert decision.action == "declined"
        assert decision.reason == "insufficient_traffic"
        assert not decision.acted

    def test_first_eligible_decision_blesses_the_baseline(self):
        table = build_table(entities=60)
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        run_round(table, selective_queries())
        decision = controller.maybe_adapt(table)
        assert decision.reason == "baseline_established"
        assert not decision.acted

    def test_stationary_workload_never_triggers_an_action(self):
        table = build_table(entities=60)
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        for _ in range(8):
            run_round(table, selective_queries())
            controller.maybe_adapt(table)
        assert controller.actions_taken == 0
        reasons = {d.reason for d in controller.decisions()}
        assert reasons <= {"baseline_established", "no_shift"}

    def test_cooldown_blocks_the_next_action(self):
        clock = FakeClock()
        table = build_table()
        controller = AdaptationController(
            config=controller_config(cooldown_s=60.0), clock=clock
        )
        controller.bind_table(table)
        run_round(table, selective_queries())
        controller.maybe_adapt(table)  # baseline
        broad = [AttributeQuery(("common",), "any")] * 36
        run_round(table, broad)
        acted = controller.maybe_adapt(table)
        assert acted.acted
        run_round(table, broad)
        clock.now += 10.0
        decision = controller.maybe_adapt(table)
        assert decision.reason == "cooldown"
        clock.now += 60.0
        decision = controller.maybe_adapt(table)
        assert decision.reason != "cooldown"

    def test_action_budget_is_enforced(self):
        table = build_table(entities=60)
        controller = AdaptationController(
            config=controller_config(max_actions=1)
        )
        controller.bind_table(table)
        controller._state.actions_taken = 1  # budget already spent
        run_round(table, selective_queries())
        decision = controller.maybe_adapt(table)
        assert decision.reason == "budget_exhausted"

    def test_declined_reasons_cover_the_gate_order(self):
        assert DECLINED_REASONS == (
            "insufficient_traffic",
            "budget_exhausted",
            "cooldown",
            "baseline_established",
            "no_shift",
            "below_threshold",
        )


class TestClosedLoop:
    def test_shift_triggers_one_reorganization_then_quiesces(self):
        table = build_table()
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        run_round(table, selective_queries())
        controller.maybe_adapt(table)  # baseline_established
        before = table.partition_count()
        assert before > GROUPS  # finer than one partition per group

        broad = [AttributeQuery(("common",), "any")] * 36
        acted = None
        for _ in range(4):
            run_round(table, broad)
            decision = controller.maybe_adapt(table)
            if decision.acted:
                acted = decision
                break
        assert acted is not None, "the shift was never answered"
        assert acted.action == "reorganize"
        assert acted.shift >= SHIFT_THRESHOLD
        assert acted.plan is not None
        assert acted.plan.win_fraction > 0.0
        assert table.partition_count() < before
        assert table.check_consistency() == []

        # the reference was re-blessed: the same mix now quiesces
        for _ in range(3):
            run_round(table, broad)
            decision = controller.maybe_adapt(table)
            assert not decision.acted
        assert controller.actions_taken == 1

    def test_rows_survive_the_adaptation(self):
        table = build_table()
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        query = AttributeQuery(("common",), "any")
        expected = sorted(
            row["common"] for row in table.execute_naive(query).rows
        )
        run_round(table, selective_queries())
        controller.maybe_adapt(table)
        run_round(table, [query] * 36)
        assert controller.maybe_adapt(table).acted
        got = sorted(row["common"] for row in table.execute(query).rows)
        assert got == expected

    def test_merge_action_runs_the_maintenance_merger(self):
        """The cheap action path: a winning merge plan applies through
        ``merge_small_partitions`` and counts as ``acted_merge``."""
        from repro.adapt.advisor import AdaptationPlan
        from repro.adapt.controller import AdaptationDecision

        # same-mask partitions split by capacity, then thinned by
        # deletes: under-filled, and the rating lets them re-combine
        table = CinderellaTable(CinderellaConfig(
            max_partition_size=3.0, weight=0.3, use_synopsis_index=True
        ))
        for i in range(30):
            table.insert({"a": i, "b": i}, entity_id=i)
        for eid in range(30):
            if eid % 3:
                table.delete(eid)
        before = table.partition_count()
        assert before > 4
        controller = AdaptationController(
            config=controller_config(merge_min_fill=0.9)
        )
        controller.bind_table(table)
        plan = AdaptationPlan(
            kind="merge", config=table.config,
            predicted_current_ms=1.0, predicted_plan_ms=0.5,
            reorg_cost_ms=1.0, predicted_win_ms=0.5, win_fraction=0.5,
            partitions_before=before, partitions_after=before // 2,
            rationale="test",
        )
        decision = AdaptationDecision(
            "merge", "predicted_win", 0.5, 100, plan=plan
        )
        with controller._lock:
            applied = controller._apply_locked(table, decision)
            controller._record_locked(applied)
        assert applied.acted
        assert table.partition_count() < before
        assert controller.counters.acted_merge == 1
        assert controller.actions_taken == 1
        assert table.check_consistency() == []

    def test_evaluate_decides_without_acting(self):
        table = build_table()
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        run_round(table, selective_queries())
        controller.evaluate(table)
        run_round(table, [AttributeQuery(("common",), "any")] * 36)
        before = table.partition_count()
        decision = controller.evaluate(table)
        assert decision.action == "reorganize"
        assert not decision.acted
        assert table.partition_count() == before
        assert controller.actions_taken == 0

    def test_calibration_probes_fit_the_model_before_advising(self):
        table = build_table()
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        run_round(table, selective_queries())
        controller.maybe_adapt(table)
        run_round(table, [AttributeQuery(("common",), "any")] * 36)
        controller.maybe_adapt(table)
        status = controller.calibrator.status()
        assert status["fitted"]
        assert status["samples"] >= controller.calibrator.min_samples
        assert controller.counters.calibration_refits >= 1

    def test_calibration_can_be_disabled(self):
        table = build_table()
        controller = AdaptationController(
            config=controller_config(calibrate=False)
        )
        controller.bind_table(table)
        run_round(table, selective_queries())
        controller.maybe_adapt(table)
        run_round(table, [AttributeQuery(("common",), "any")] * 36)
        controller.maybe_adapt(table)
        assert controller.counters.calibration_refits == 0


class TestStationaryProperty:
    """Pinned property: no reorganizations on a stationary workload."""

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=17),
                    min_size=40, max_size=120),
           st.integers(min_value=2, max_value=9))
    def test_any_interleaving_of_a_fixed_mix_quiesces(
        self, picks, consult_every
    ):
        table = build_table(entities=120)
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        shapes = selective_queries()
        for step, pick in enumerate(picks, start=1):
            table.execute(shapes[pick])
            if step % consult_every == 0:
                controller.maybe_adapt(table)
        controller.maybe_adapt(table)
        assert controller.actions_taken == 0


class TestObservability:
    def test_every_decision_is_counted_and_evented(self):
        table = build_table()
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        state = obs.enable(slow_op_threshold_s=None)
        try:
            controller.maybe_adapt(table)  # insufficient_traffic
            run_round(table, selective_queries())
            controller.maybe_adapt(table)  # baseline_established
            run_round(table, selective_queries())
            controller.maybe_adapt(table)  # no_shift
            run_round(table, [AttributeQuery(("common",), "any")] * 36)
            controller.maybe_adapt(table)  # reorganize
        finally:
            obs.disable()
        counters = controller.counters.as_dict()
        assert counters["decisions_total"] == 4
        assert counters["declined_insufficient_traffic"] == 1
        assert counters["declined_baseline_established"] == 1
        assert counters["declined_no_shift"] == 1
        assert counters["acted_reorganize"] == 1

        events = state.events.of_kind("adapt.decision")
        assert len(events) == 4
        reasons = [e.fields["reason"] for e in events]
        assert reasons == [
            "insufficient_traffic", "baseline_established",
            "no_shift", "predicted_win",
        ]
        acted = events[-1]
        assert acted.fields["action"] == "reorganize"
        assert acted.fields["win_fraction"] > 0.0

        # counters mirror into the registry as repro_adapt_* metrics
        metric = state.registry.get("repro_adapt_decisions_total")
        assert metric is not None

        # the evaluate span and the shift gauge are recorded
        assert state.tracer.find_trace("adapt.evaluate") is not None
        assert state.registry.get("repro_adapt_shift_score") is not None

    def test_status_document_is_wire_shaped(self):
        import json

        table = build_table(entities=60)
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        run_round(table, selective_queries())
        controller.maybe_adapt(table)
        status = json.loads(json.dumps(controller.status()))
        assert status["actions_taken"] == 0
        assert status["trace"]["queries_observed"] == 18
        assert status["shift"] is not None
        assert status["last_decision"]["reason"] == "baseline_established"
        assert set(status["calibration"]) == {
            "samples", "refits", "prediction_error", "fitted"
        }

    def test_decisions_ring_is_bounded(self):
        table = build_table(entities=60)
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        for _ in range(70):
            controller.maybe_adapt(table)
        assert len(controller.decisions()) == 64


class TestTableHook:
    def test_bound_table_feeds_the_trace_on_execute(self):
        table = build_table(entities=60)
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        assert table.adapt is controller
        result = table.execute(AttributeQuery(("g0_a",), "any"))
        assert controller.trace.queries_observed == 1
        profile = controller.trace.profile()
        assert len(profile) == 1
        heat = controller.trace.heat()
        assert result.plan is not None
        for pid in result.plan.branch_pids:
            assert heat[pid].reads == 1

    def test_writes_heat_their_partition(self):
        table = build_table(entities=60)
        controller = AdaptationController(config=controller_config())
        controller.bind_table(table)
        outcome = table.insert({"common": 999, "g0_a": 999}, entity_id=999)
        heat = controller.trace.heat()
        assert heat[outcome.partition_id].writes == 1
        assert controller.trace.writes_observed == 1

    def test_unbound_table_pays_nothing(self):
        table = build_table(entities=60)
        assert table.adapt is None
        table.execute(AttributeQuery(("g0_a",), "any"))  # no hook, no error


class TestServerIntegration:
    """The controller in the server's maintenance slot, over sockets."""

    def test_maintenance_consults_and_stats_expose_heat(self):
        from repro.server import ServerConfig, ServerThread
        from repro.server.client import ServerClient

        config = ServerConfig(
            maintenance_interval_s=0,  # passes on demand only
            adapt_every=1,
            adaptation=controller_config(min_observations=8),
        )
        with ServerThread(config=config) as harness:
            with ServerClient(*harness.address) as client:
                for i in range(30):
                    client.insert({"common": i, f"g{i % 3}": i}, eid=i)
                for _ in range(10):
                    client.query(["common"])
                client.maintain()
                stats = client.stats()
        assert stats["counters"]["adapt_decisions"] == 1
        adaptation = stats["adaptation"]
        assert adaptation["trace"]["queries_observed"] >= 10
        assert adaptation["last_decision"] is not None
        heat = stats["heat"]
        assert heat, "served queries must heat the scanned partitions"
        assert all("reads" in h for h in heat.values())

    def test_stats_omit_adaptation_when_disabled(self):
        from repro.server import ServerConfig, ServerThread
        from repro.server.client import ServerClient

        config = ServerConfig(maintenance_interval_s=0)
        with ServerThread(config=config) as harness:
            with ServerClient(*harness.address) as client:
                stats = client.stats()
        assert stats["heat"] is None
        assert stats["adaptation"] is None
