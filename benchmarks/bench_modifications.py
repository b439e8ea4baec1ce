"""Modification-mix bench — partitioning stability under sustained churn.

The paper defines the update and delete routines (Section III) but its
evaluation only measures bulk inserts.  This bench closes that gap: after
a warm-up load, a long mixed trace of inserts, drift updates, churn
updates (entities changing their latent type), and deletes streams
through Cinderella while Definition 1 efficiency is sampled at a fixed
operation cadence.

Asserted behaviour:

* invariants hold through the whole trace;
* Definition 1 efficiency stays within a band of the warm-up value —
  the online algorithm keeps the partitioning good, it does not decay;
* churn updates move entities (the update routine re-rates and
  relocates), while pure drift updates mostly stay in place.
"""

from repro.core.config import CinderellaConfig
from repro.core.efficiency import catalog_efficiency
from repro.core.partitioner import CinderellaPartitioner
from repro.reporting.chart import render_line_chart
from repro.reporting.tables import format_table
from repro.workloads.modifications import generate_trace

from conftest import N_ENTITIES


def test_partitioning_stability_under_churn(benchmark, dbpedia, query_workload):
    dictionary = dbpedia.dictionary()
    queries = [spec.query.synopsis_mask(dictionary) for spec in query_workload]
    warmup = min(N_ENTITIES // 4, 5_000)
    operations = warmup  # as many mixed ops as warm-up inserts
    trace = generate_trace(
        dbpedia,
        operations=operations,
        insert_share=0.4,
        update_share=0.35,
        churn_update_share=0.4,
        warmup=warmup,
        seed=5,
    )

    partitioner = CinderellaPartitioner(
        CinderellaConfig(max_partition_size=200, weight=0.3)
    )
    interval = max(1, (warmup + operations) // 20)
    efficiency_series = []
    moved_updates = 0
    in_place_updates = 0
    applied = {"insert": 0, "update": 0, "delete": 0}
    efficiency_after_warmup = None
    for position, operation in enumerate(trace):
        if operation.kind == "insert":
            partitioner.insert(
                operation.entity_id, dictionary.encode(operation.attributes)
            )
        elif operation.kind == "update":
            outcome = partitioner.update(
                operation.entity_id, dictionary.encode(operation.attributes)
            )
            if outcome.in_place:
                in_place_updates += 1
            else:
                moved_updates += 1
        else:
            partitioner.delete(operation.entity_id)
        applied[operation.kind] += 1
        if (position + 1) % interval == 0:
            efficiency_series.append(
                (float(position + 1), catalog_efficiency(partitioner.catalog, queries))
            )
        if position + 1 == warmup:
            efficiency_after_warmup = catalog_efficiency(
                partitioner.catalog, queries
            )

    final_efficiency = catalog_efficiency(partitioner.catalog, queries)
    efficiency_series.append((float(len(trace)), final_efficiency))
    assert partitioner.check_invariants() == []

    print()
    print(format_table(
        ["metric", "value"],
        [
            ["operations applied", sum(applied.values())],
            ["inserts / updates / deletes",
             f"{applied['insert']} / {applied['update']} / {applied['delete']}"],
            ["updates moved / in place", f"{moved_updates} / {in_place_updates}"],
            ["efficiency after warm-up", efficiency_after_warmup],
            ["efficiency at end", final_efficiency],
            ["partitions at end", len(partitioner.catalog)],
            ["splits total", partitioner.split_count],
        ],
        title="Partitioning stability under mixed modifications",
    ))
    print()
    print(render_line_chart(
        {"efficiency": efficiency_series},
        title="Definition 1 efficiency over the trace",
        height=10,
    ))

    # benchmark kernel: one churn update (re-rate, possibly move)
    sample_update = next(op for op in reversed(trace) if op.kind == "update")
    mask = dictionary.encode(sample_update.attributes)
    benchmark(lambda: partitioner.update(sample_update.entity_id, mask))

    # stability: efficiency stays within a band of the warm-up value
    assert final_efficiency is not None
    assert final_efficiency > 0.85 * efficiency_after_warmup
    # churn updates do get relocated; drift updates mostly stay
    assert moved_updates > 0
    assert in_place_updates > 0
