"""Partitioning efficiency (Definition 1) across partitioners.

Not a figure of the paper, but the paper's own objective function: the
Online Partitioning Problem asks to maximize EFFICIENCY(P).  This bench
scores Cinderella against the related-work baselines of Section VI on the
DBpedia data set and the representative query workload:

* unpartitioned universal table (the paper's experimental baseline),
* hash partitioning (web-scale default, refs [12]-[14]),
* round-robin size-bounded partitioning,
* offline Jaccard leader clustering (hidden-schema style, ref [18]),
* the exact-signature oracle (upper bound).

Asserted ordering: oracle ≥ Cinderella > hash ≈ universal, and Cinderella
within reach of the offline clustering despite being online.
"""

from repro.baselines.hash_partitioner import HashPartitioner
from repro.baselines.offline import clustering_partitioning, oracle_partitioning
from repro.baselines.round_robin import RoundRobinPartitioner
from repro.core.config import CinderellaConfig
from repro.core.efficiency import catalog_efficiency, universal_table_efficiency
from repro.core.partitioner import CinderellaPartitioner
from repro.reporting.tables import format_table

from conftest import B_DEFAULT


def test_efficiency_across_partitioners(benchmark, dbpedia, query_workload):
    dictionary = dbpedia.dictionary()
    entities = [
        (entity.entity_id, entity.synopsis_mask(dictionary))
        for entity in dbpedia.entities
    ]
    queries = [
        spec.query.synopsis_mask(dictionary) for spec in query_workload
    ]

    cinderella = CinderellaPartitioner(
        CinderellaConfig(max_partition_size=B_DEFAULT, weight=0.2)
    )
    for eid, mask in entities:
        cinderella.insert(eid, mask)

    hash_partitioner = HashPartitioner(num_partitions=len(cinderella.catalog))
    round_robin = RoundRobinPartitioner(max_partition_size=B_DEFAULT)
    for eid, mask in entities:
        hash_partitioner.insert(eid, mask)
        round_robin.insert(eid, mask)

    clustering = clustering_partitioning(
        entities, max_partition_size=B_DEFAULT, threshold=0.4
    )
    oracle = oracle_partitioning(entities, max_partition_size=B_DEFAULT)

    sized = [(mask, 1.0) for _eid, mask in entities]
    scores = {
        "universal table": universal_table_efficiency(sized, queries),
        "hash": catalog_efficiency(hash_partitioner.catalog, queries),
        "round robin": catalog_efficiency(round_robin.catalog, queries),
        "offline clustering": catalog_efficiency(clustering, queries),
        "cinderella (online)": catalog_efficiency(cinderella.catalog, queries),
        "oracle (upper bound)": catalog_efficiency(oracle, queries),
    }
    partition_counts = {
        "universal table": 1,
        "hash": len(hash_partitioner.catalog),
        "round robin": len(round_robin.catalog),
        "offline clustering": len(clustering),
        "cinderella (online)": len(cinderella.catalog),
        "oracle (upper bound)": len(oracle),
    }
    print()
    print(
        format_table(
            ["partitioner", "partitions", "EFFICIENCY(P)"],
            [
                [name, partition_counts[name], score]
                for name, score in scores.items()
            ],
            title=f"Definition 1 efficiency (B = {B_DEFAULT}, w = 0.2)",
        )
    )

    # benchmark kernel: the efficiency computation itself
    benchmark(lambda: catalog_efficiency(cinderella.catalog, queries))

    assert scores["oracle (upper bound)"] >= scores["cinderella (online)"]
    assert scores["cinderella (online)"] > 1.3 * scores["universal table"]
    assert scores["cinderella (online)"] > 1.3 * scores["hash"]
    assert scores["cinderella (online)"] > 1.2 * scores["round robin"]
    # hash partitioning cannot beat the unpartitioned table by much
    assert abs(scores["hash"] - scores["universal table"]) < 0.1
    # online Cinderella is competitive with the offline clustering
    assert scores["cinderella (online)"] > 0.8 * scores["offline clustering"]
