"""Figure 4 — attribute distribution in the DBpedia data set.

Regenerates both panels: (a) the attribute-frequency distribution and
(b) the attributes-per-entity distribution, and checks the anchors the
paper states in Section V-B:

* two attributes appear on almost every entity;
* eleven attributes are fairly common (> 30 %);
* 85 % of attributes appear on fewer than 10 % of entities;
* most entities have 2-15 attributes, a few up to 27;
* overall sparseness ≈ 0.94.
"""

from repro.reporting.histogram import LogHistogram, render_histogram
from repro.reporting.tables import format_kv_block, format_table
from repro.workloads.dbpedia import generate_dbpedia_persons

from conftest import DATASET_SEED, N_ENTITIES


def test_fig4_attribute_distribution(benchmark, dbpedia):
    dataset = dbpedia
    benchmark.pedantic(
        generate_dbpedia_persons,
        kwargs={"n_entities": min(N_ENTITIES, 5000), "seed": DATASET_SEED},
        rounds=1,
        iterations=1,
    )

    frequencies = sorted(dataset.attribute_frequencies().values(), reverse=True)
    per_entity = dataset.attributes_per_entity()

    # Figure 4(a): attribute frequency by rank
    rank_rows = [
        [f"rank {rank + 1}", frequencies[rank]]
        for rank in (0, 1, 2, 7, 12, 14, 19, 49, 99)
        if rank < len(frequencies)
    ]
    print()
    print(format_table(["attribute rank", "frequency"], rank_rows,
                       title="Figure 4(a): attribute frequency distribution"))

    # Figure 4(b): attributes per entity
    histogram = LogHistogram(low=1, high=100, buckets_per_decade=4)
    histogram.add_all(per_entity)
    print()
    print("Figure 4(b): attributes per entity")
    print(render_histogram(histogram.buckets()))

    print()
    print(format_kv_block(
        "Paper anchors (Section V-B)",
        [
            ("near-universal attributes (>= 0.85)",
             sum(1 for f in frequencies if f >= 0.85)),
            ("fairly common attributes (> 0.30)",
             sum(1 for f in frequencies if f > 0.30)),
            ("share of attributes below 0.10",
             sum(1 for f in frequencies if f < 0.10) / len(frequencies)),
            ("median attributes per entity", sorted(per_entity)[len(per_entity) // 2]),
            ("max attributes per entity", max(per_entity)),
            ("universal-table sparseness", dataset.sparseness()),
        ],
    ))

    # the paper's stated properties
    assert sum(1 for f in frequencies if f >= 0.85) == 2
    assert 10 <= sum(1 for f in frequencies if f > 0.30) <= 16
    assert sum(1 for f in frequencies if f < 0.10) >= 0.78 * len(frequencies)
    assert 2 <= sorted(per_entity)[len(per_entity) // 2] <= 15
    assert max(per_entity) <= 35
    assert 0.85 <= dataset.sparseness() <= 0.97
