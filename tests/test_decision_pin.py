"""Pinned decisions of Algorithm 1 on one seeded modification stream.

Every optimisation of the insert path (the rating loop, synopsis
maintenance, the split drain) must leave Cinderella's decisions
bit-identical: the same ratings computed, the same splits, the same
partitions holding the same members.  This test replays ~3,000 DBpedia
inserts, updates and deletes through a :class:`CinderellaTable` and
compares those outcomes with constants recorded before the insert path
was last rewritten.  A change that moves one of them changed a decision,
not just its cost.
"""

import hashlib

from repro.core.config import CinderellaConfig
from repro.table.partitioned import CinderellaTable
from repro.workloads.dbpedia import generate_dbpedia_persons
from repro.workloads.modifications import generate_trace, replay

from tests.conftest import WORKLOAD_SEED

N_ENTITIES = 3_000
#: few latent types, so partitions fill up and split at B = 200
N_TYPES = 5
WARMUP = 2_000
OPERATIONS = 1_000

#: recorded on the stream below; see the module docstring
SPLITS = 13
RATINGS = 125_573
PARTITIONS = 44
LAYOUT_DIGEST = (
    "69daaaa40371aeaf7366f5089e7aa0e8c9b6b1df658948f69aa9ef4e2ccb34e9"
)


def layout_digest(table: CinderellaTable) -> str:
    """SHA-256 over every partition's id and sorted member ids."""
    digest = hashlib.sha256()
    for pid in sorted(table.catalog.partition_ids()):
        members = sorted(table.catalog.get(pid).entity_ids())
        digest.update(repr((pid, members)).encode())
    return digest.hexdigest()


def test_a_seeded_stream_makes_the_pinned_decisions():
    dataset = generate_dbpedia_persons(
        n_entities=N_ENTITIES, n_types=N_TYPES, seed=WORKLOAD_SEED
    )
    trace = generate_trace(
        dataset, operations=OPERATIONS, insert_share=0.3, update_share=0.5,
        churn_update_share=0.5, warmup=WARMUP, seed=WORKLOAD_SEED,
    )
    table = CinderellaTable(
        CinderellaConfig(
            max_partition_size=200, weight=0.3, use_synopsis_index=True
        )
    )
    counts = replay(trace, table)
    assert sum(counts.values()) == WARMUP + OPERATIONS
    assert min(counts.values()) > 0
    assert table.check_consistency() == []

    partitioner = table.partitioner
    assert partitioner.split_count == SPLITS
    assert partitioner.ratings_computed == RATINGS
    assert len(table.catalog) == PARTITIONS
    assert layout_digest(table) == LAYOUT_DIGEST
