"""Figure 7 — influence of the weight w on the partitioning
(paper: B = 5 000, DBpedia data set).

Four panels, each a distribution over the weight sweep:
(a) number of partitions, (b) entities per partition,
(c) attributes per partition, (d) sparseness per partition.

Paper findings this bench reproduces and asserts:

* the lower the weight, the more partitions; the count explodes for
  w < 0.2;
* higher weights put more entities per partition;
* attributes per partition grow with the weight, yet stay significantly
  below the universal table's attribute count in all settings;
* sparseness per partition grows with the weight; w = 0 yields perfectly
  dense (sparseness-0) partitions; medium weights stay well below the
  data set's overall sparseness (paper: 0.94).
"""

from repro.core.config import CinderellaConfig
from repro.core.efficiency import summarize_catalog
from repro.core.partitioner import CinderellaPartitioner
from repro.reporting.tables import format_table

from conftest import B_DEFAULT, W_SWEEP


def partition_with_weight(dbpedia, weight: float) -> CinderellaPartitioner:
    dictionary = dbpedia.dictionary()
    partitioner = CinderellaPartitioner(
        CinderellaConfig(max_partition_size=B_DEFAULT, weight=weight)
    )
    for entity in dbpedia.entities:
        partitioner.insert(entity.entity_id, entity.synopsis_mask(dictionary))
    return partitioner


def test_fig7_weight_influence_on_partitioning(benchmark, dbpedia):
    summaries = {}
    for weight in W_SWEEP:
        partitioner = partition_with_weight(dbpedia, weight)
        assert partitioner.check_invariants() == []
        summaries[weight] = summarize_catalog(partitioner.catalog)

    # benchmark kernel: one full partitioning pass at the paper's w = 0.2
    benchmark.pedantic(
        partition_with_weight, args=(dbpedia, 0.2), rounds=1, iterations=1
    )

    rows = []
    for weight, summary in summaries.items():
        rows.append(
            [
                weight,
                summary.partition_count,
                summary.entities_summary.median,
                float(max(summary.entities_per_partition)),
                summary.attributes_summary.median,
                float(max(summary.attributes_per_partition)),
                summary.sparseness_summary.median,
                summary.max_sparseness,
            ]
        )
    print()
    print(
        format_table(
            [
                "w",
                "partitions (a)",
                "entities p50 (b)",
                "entities max (b)",
                "attrs p50 (c)",
                "attrs max (c)",
                "sparseness p50 (d)",
                "sparseness max (d)",
            ],
            rows,
            title=f"Figure 7: influence of the weight (B = {B_DEFAULT})",
        )
    )

    counts = {w: s.partition_count for w, s in summaries.items()}
    # (a) monotone-ish decrease, explosion below 0.2
    assert counts[0.0] > 4 * counts[0.4], "w < 0.2 must explode the count"
    assert counts[0.2] >= counts[0.6]
    # (b) higher weights fill partitions further
    assert (
        summaries[0.8].entities_summary.median
        > summaries[0.2].entities_summary.median
    )
    # (c) attributes per partition grow with w but stay below the table width
    table_width = len(dbpedia.attribute_names)
    assert (
        summaries[0.8].attributes_summary.median
        >= summaries[0.2].attributes_summary.median
    )
    for weight, summary in summaries.items():
        assert max(summary.attributes_per_partition) < table_width, f"w={weight}"
    # (d) w = 0 is perfectly homogeneous; medium weights stay well below
    # the data set's overall sparseness
    assert summaries[0.0].max_sparseness == 0.0
    dataset_sparseness = dbpedia.sparseness()
    assert summaries[0.4].sparseness_summary.median < dataset_sparseness - 0.15
    assert (
        summaries[0.8].sparseness_summary.median
        > summaries[0.2].sparseness_summary.median
    )
