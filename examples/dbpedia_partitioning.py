"""DBpedia scenario — the paper's irregular-data evaluation in one script.

Loads the synthetic DBpedia person extract (calibrated to the paper's
Figure 4) into one table class under three layouts — Cinderella, hash
partitioning, and the unpartitioned baseline (the one-partition layout)
— then compares selective-query cost, partitioning efficiency
(Definition 1), and the resulting partition layout.  Every layout is read
through the same executor, so they return the same rows.

Run with::

    python examples/dbpedia_partitioning.py [n_entities]
"""

import sys

from repro import (
    CinderellaConfig,
    CinderellaTable,
    CostModel,
    catalog_efficiency,
    universal_table_efficiency,
    unpartitioned_table,
)
from repro.baselines import HashPartitioner
from repro.core import summarize_catalog
from repro.reporting import format_kv_block, format_table
from repro.workloads import (
    build_query_workload,
    generate_dbpedia_persons,
    representative_queries,
)


def main(n_entities: int = 10_000) -> None:
    print(f"Generating {n_entities} DBpedia person entities ...")
    dataset = generate_dbpedia_persons(n_entities=n_entities, seed=42)
    print(
        f"  {len(dataset.attribute_names)} attributes, "
        f"sparseness {dataset.sparseness():.2f} (paper: 0.94)"
    )

    config = CinderellaConfig(max_partition_size=n_entities // 20, weight=0.2)
    cinderella = CinderellaTable(config, page_size=1024)
    layouts = {
        "cinderella": cinderella,
        "hash": CinderellaTable(partitioner=HashPartitioner(20), page_size=1024),
        "universal": unpartitioned_table(page_size=1024),
    }
    print(f"Loading three layouts (B = {config.max_partition_size:g}, w = 0.2) ...")
    for entity in dataset.entities:
        for table in layouts.values():
            table.insert(entity.attributes, entity_id=entity.entity_id)

    summary = summarize_catalog(cinderella.catalog)
    print()
    print(format_kv_block(
        "Cinderella partitioning",
        [
            ("partitions", summary.partition_count),
            ("splits during load", cinderella.partitioner.split_count),
            ("median entities/partition", summary.entities_summary.median),
            ("median attributes/partition", summary.attributes_summary.median),
            ("median sparseness/partition", summary.sparseness_summary.median),
        ],
    ))

    dictionary = cinderella.dictionary
    masks = list(cinderella.entity_masks().values())
    workload = representative_queries(
        build_query_workload(masks, dictionary, max_triples=60), per_bucket=1
    )
    model = CostModel()

    rows = []
    for spec in workload[::3]:
        results = {name: t.execute(spec.query) for name, t in layouts.items()}
        answers = {
            name: sorted(map(repr, result.rows)) for name, result in results.items()
        }
        assert answers["hash"] == answers["universal"] == answers["cinderella"]
        stats_c = results["cinderella"].stats
        rows.append(
            [
                ", ".join(spec.query.attributes)[:34],
                spec.selectivity,
                *(model.query_time_ms(r.stats) for r in results.values()),
                f"{stats_c.partitions_pruned}/{stats_c.partitions_total}",
            ]
        )
    print()
    print(format_table(
        ["query attributes", "selectivity", "cinderella ms", "hash ms",
         "universal ms", "pruned"],
        rows,
        title="Simulated query cost by selectivity (same rows on every layout)",
    ))

    query_masks = [s.query.synopsis_mask(dictionary) for s in workload]
    efficiency = {
        name: catalog_efficiency(t.catalog, query_masks)
        for name, t in layouts.items()
    }
    # the one-partition layout is Definition 1's P = {T}
    assert efficiency["universal"] == universal_table_efficiency(
        [(m, 1.0) for m in masks], query_masks
    )
    assert efficiency["cinderella"] > efficiency["universal"]
    print()
    print(format_kv_block(
        "Partitioning efficiency (Definition 1)", list(efficiency.items())
    ))
    for table in layouts.values():
        assert table.check_consistency() == []


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10_000)
