"""DBpedia scenario — the paper's irregular-data evaluation in one script.

Loads the synthetic DBpedia person extract (calibrated to the paper's
Figure 4) into a Cinderella-partitioned universal table and into the
unpartitioned baseline, then compares selective-query cost, partitioning
efficiency (Definition 1), and the resulting partition layout.

Run with::

    python examples/dbpedia_partitioning.py [n_entities]
"""

import sys

from repro import (
    CinderellaConfig,
    CinderellaTable,
    CostModel,
    UniversalTable,
    catalog_efficiency,
    universal_table_efficiency,
)
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
    universal = UniversalTable(page_size=1024)
    print(f"Loading both layouts (B = {config.max_partition_size:g}, w = 0.2) ...")
    for entity in dataset.entities:
        cinderella.insert(entity.attributes, entity_id=entity.entity_id)
        universal.insert(entity.attributes, entity_id=entity.entity_id)

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
        stats_c = cinderella.execute(spec.query).stats
        stats_u = universal.execute(spec.query).stats
        rows.append(
            [
                ", ".join(spec.query.attributes)[:34],
                spec.selectivity,
                model.query_time_ms(stats_c),
                model.query_time_ms(stats_u),
                f"{stats_c.partitions_pruned}/{stats_c.partitions_total}",
            ]
        )
    print()
    print(format_table(
        ["query attributes", "selectivity", "cinderella ms", "universal ms",
         "pruned"],
        rows,
        title="Simulated query cost by selectivity",
    ))

    query_masks = [s.query.synopsis_mask(dictionary) for s in workload]
    eff_c = catalog_efficiency(cinderella.catalog, query_masks)
    eff_u = universal_table_efficiency([(m, 1.0) for m in masks], query_masks)
    print()
    print(format_kv_block(
        "Partitioning efficiency (Definition 1)",
        [("cinderella", eff_c), ("universal table", eff_u)],
    ))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10_000)
