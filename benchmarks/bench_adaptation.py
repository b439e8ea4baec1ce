"""Workload-shift benchmark: the closed adaptation loop vs a frozen layout.

The scenario is the one the controller is built for.  A table holding
``GROUPS`` disjoint attribute groups (plus one attribute every entity
shares) is loaded under a deliberately *fine* layout (``B = FINE_B`` ->
dozens of partitions), which is the right layout for phase A: selective
per-group queries prune to a handful of partitions.  Then the workload
shifts — phase B scans the shared attribute, so every query touches
every partition and pays the fine layout's per-branch and per-page
overhead on all of them.

Three runs over identical traffic:

* **frozen** — no controller; the fine layout serves both phases.
* **adaptive** — an :class:`~repro.adapt.AdaptationController` is
  consulted once per round: it blesses phase A as the baseline, detects
  the phase-B shift, reorganizes to the advisor's coarser winner, and
  quiesces.
* **stationary control** — the adaptive setup, but traffic never
  shifts; the contract is *zero* actions.

Costs are accounted with the default :class:`~repro.cost.model.CostModel`
over each query's measured :class:`ExecutionStats` — deterministic I/O
accounting, not wall clock, so the comparison is machine-independent
(wall times are reported for context but never gated).  The headline is
the phase-B steady state (the last ``TAIL_ROUNDS`` rounds): the adapted
layout must beat the frozen one by at least ``MIN_STEADY_WIN`` with a
bounded number of reorganizations.

``python benchmarks/bench_adaptation.py --record`` rewrites the
committed baseline ``BENCH_adaptation.json`` at the repo root.  The
pytest gate re-runs the scenario and enforces: shift detected, 1..
``MAX_ACTIONS_ALLOWED`` reorganizations, steady-state win over frozen,
zero actions on the stationary control, and rows identical to the
frozen run throughout.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.adapt import AdaptationConfig, AdaptationController
from repro.adapt.controller import SHIFT_THRESHOLD
from repro.core.config import CinderellaConfig
from repro.cost.model import CostModel
from repro.query.query import AttributeQuery
from repro.table.partitioned import CinderellaTable

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_adaptation.json"

GROUPS = 6
N_ENTITIES = 900
#: the deliberately fine initial layout (B as entity count)
FINE_B = 30.0
FINE_W = 0.3
#: rounds per phase; one controller consult per round
ROUNDS_A = 4
ROUNDS_B = 8
#: the steady state is the mean of the last rounds of phase B
TAIL_ROUNDS = 3
#: controller tuning for the scenario's scale
MIN_OBSERVATIONS = 32
HORIZON_QUERIES = 500.0

#: gates
MIN_STEADY_WIN = 0.3
MAX_ACTIONS_ALLOWED = 2

#: deterministic accounting model (identical for every run)
ACCOUNTING = CostModel()


def build_table() -> CinderellaTable:
    table = CinderellaTable(CinderellaConfig(
        max_partition_size=FINE_B, weight=FINE_W, use_synopsis_index=True
    ))
    for i in range(N_ENTITIES):
        group = i % GROUPS
        attributes = {"common": i}
        for suffix in ("a", "b", "c"):
            attributes[f"g{group}_{suffix}"] = i
        table.insert(attributes, entity_id=i)
    return table


def selective_round() -> list[AttributeQuery]:
    return [
        AttributeQuery((f"g{group}_{suffix}",), "any")
        for group in range(GROUPS) for suffix in ("a", "b", "c")
    ]


def broad_round() -> list[AttributeQuery]:
    return [AttributeQuery(("common",), "any")] * (3 * GROUPS)


def make_controller() -> AdaptationController:
    return AdaptationController(config=AdaptationConfig(
        min_observations=MIN_OBSERVATIONS,
        cooldown_s=0.0,  # rounds gate the consults; the bench is seconds
        horizon_queries=HORIZON_QUERIES,
    ))


def run_scenario(adaptive: bool, shift: bool = True) -> dict:
    """One traffic replay; returns per-round accounting and decisions."""
    table = build_table()
    controller = None
    if adaptive:
        controller = make_controller()
        controller.bind_table(table)
    phases = [("A", selective_round(), ROUNDS_A)]
    phases.append(
        ("B", broad_round() if shift else selective_round(), ROUNDS_B)
    )
    rounds = []
    decisions = []
    row_digests = []
    for phase, queries, count in phases:
        for _ in range(count):
            cost_ms = 0.0
            rows = 0
            started = time.perf_counter()
            for query in queries:
                result = table.execute(query)
                cost_ms += ACCOUNTING.query_time_ms(result.stats)
                rows += len(result.rows)
            wall_s = time.perf_counter() - started
            decision = None
            if controller is not None:
                decision = controller.maybe_adapt(table)
                decisions.append(decision.as_dict())
            rounds.append({
                "phase": phase,
                "partitions": table.partition_count(),
                "cost_per_query_ms": round(cost_ms / len(queries), 4),
                "wall_ms": round(wall_s * 1e3, 2),
                "action": None if decision is None or not decision.acted
                else decision.action,
            })
            row_digests.append(rows)
    assert table.check_consistency() == []
    tail = [r["cost_per_query_ms"] for r in rounds[-TAIL_ROUNDS:]]
    return {
        "adaptive": adaptive,
        "shifted": shift,
        "initial_partitions": rounds[0]["partitions"],
        "final_partitions": rounds[-1]["partitions"],
        "actions": (0 if controller is None else controller.actions_taken),
        "steady_state_cost_ms": round(sum(tail) / len(tail), 4),
        "rounds": rounds,
        "decisions": decisions,
        "row_digests": row_digests,
    }


def run_benchmark() -> dict:
    frozen = run_scenario(adaptive=False)
    adapted = run_scenario(adaptive=True)
    stationary = run_scenario(adaptive=True, shift=False)
    win = 1.0 - (
        adapted["steady_state_cost_ms"] / frozen["steady_state_cost_ms"]
    )
    acted = [d for d in adapted["decisions"] if d["acted"]]
    return {
        "benchmark": "adaptation_shift",
        "protocol": {
            "groups": GROUPS,
            "entities": N_ENTITIES,
            "fine_b": FINE_B,
            "fine_w": FINE_W,
            "rounds_a": ROUNDS_A,
            "rounds_b": ROUNDS_B,
            "tail_rounds": TAIL_ROUNDS,
            "min_observations": MIN_OBSERVATIONS,
            "horizon_queries": HORIZON_QUERIES,
            "accounting": "default CostModel over measured ExecutionStats",
        },
        "headline": {
            "steady_state_win": round(win, 4),
            "frozen_steady_ms": frozen["steady_state_cost_ms"],
            "adapted_steady_ms": adapted["steady_state_cost_ms"],
            "reorganizations": adapted["actions"],
            "partitions": (
                f"{adapted['initial_partitions']} -> "
                f"{adapted['final_partitions']}"
            ),
            "detected_shift": acted[0]["shift"] if acted else None,
            "stationary_actions": stationary["actions"],
        },
        "frozen": frozen,
        "adapted": adapted,
        "stationary_control": stationary,
    }


def test_adaptation_gate():
    """CI gate: the closed loop must win the shift and sit still otherwise.

    * the adaptive run detects the phase-B shift and answers with a
      bounded number of reorganizations (1..MAX_ACTIONS_ALLOWED);
    * its phase-B steady state beats the frozen layout by at least
      MIN_STEADY_WIN on deterministic cost-model accounting;
    * both runs return identical row counts round for round (adaptation
      must never change answers);
    * the stationary control takes zero actions.
    """
    frozen = run_scenario(adaptive=False)
    adapted = run_scenario(adaptive=True)
    assert 1 <= adapted["actions"] <= MAX_ACTIONS_ALLOWED, (
        f"expected 1..{MAX_ACTIONS_ALLOWED} reorganizations, "
        f"got {adapted['actions']}"
    )
    acted = [d for d in adapted["decisions"] if d["acted"]]
    assert acted[0]["shift"] >= SHIFT_THRESHOLD, (
        "the action was not justified by a detected workload shift"
    )
    assert adapted["row_digests"] == frozen["row_digests"], (
        "adaptation changed query answers"
    )
    win = 1.0 - (
        adapted["steady_state_cost_ms"] / frozen["steady_state_cost_ms"]
    )
    assert win >= MIN_STEADY_WIN, (
        f"adapted steady state ({adapted['steady_state_cost_ms']} ms/query) "
        f"beats frozen ({frozen['steady_state_cost_ms']} ms/query) by only "
        f"{win:.1%}; gate: {MIN_STEADY_WIN:.0%}"
    )
    # after the action the controller must quiesce: no churn in the tail
    tail_actions = [
        r["action"] for r in adapted["rounds"][-TAIL_ROUNDS:]
        if r["action"] is not None
    ]
    assert tail_actions == [], f"controller kept churning: {tail_actions}"

    stationary = run_scenario(adaptive=True, shift=False)
    assert stationary["actions"] == 0, (
        f"{stationary['actions']} reorganizations on a stationary workload"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record",
        action="store_true",
        help=f"rewrite the committed baseline at {BASELINE_PATH.name}",
    )
    args = parser.parse_args(argv)
    report = run_benchmark()
    print(json.dumps(report, indent=2))
    if args.record:
        BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nbaseline recorded to {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
