"""Soak test: 50 000 mixed operations against the fast query path.

Runs in its own CI job (``pytest -m slow``); tier-1 excludes it via the
``addopts`` marker filter.  The trace interleaves inserts, churn updates
and deletes over a DBpedia-style dataset with periodic maintenance
(merge passes, one mid-run reorganization).  Every 1 000 operations the
suite re-establishes the three health checks ISSUE 3 asks for:

* **efficiency** — Definition 1 efficiency of the live partitioning
  beats the unpartitioned universal-table baseline for the same query
  workload and never collapses;
* **catalog invariants** — partitioner ``check_invariants`` and table
  ``check_consistency`` stay empty (synopses, sizes, version map, heap
  membership all agree);
* **cache coherence** — every servable cache entry re-scans to exactly
  its stored rows (:func:`~repro.query.cache.verify_cache_coherence`).

Each checkpoint also runs the query battery through the cache so the
coherence check is never vacuous, and replays it against the naive
full-scan oracle: the pruned scan skips records by the synopsis masks
they carry, so the oracle must see every checkpoint.  There each query's
pruned scan must also account exactly as a full-decode scan of the same
plan (pages, bytes, entities, rows, branches).
"""

import pytest

from repro.core.config import CinderellaConfig
from repro.core.efficiency import catalog_efficiency, universal_table_efficiency
from repro.query.cache import QueryResultCache, verify_cache_coherence
from repro.query.executor import execute_union_all
from repro.query.query import AttributeQuery
from repro.table.partitioned import CinderellaTable
from repro.workloads.dbpedia import generate_dbpedia_persons
from repro.workloads.modifications import generate_trace

from tests.conftest import WORKLOAD_SEED
from tests.test_pruned_scan import accounting, full_decode

pytestmark = pytest.mark.slow

N_ENTITIES = 30_000  # enough unseen entities that 50k mixed ops never drain
OPERATIONS = 50_000
WARMUP = 2_000
CHECK_EVERY = 1_000
MERGE_EVERY = 10_000
REORGANIZE_AT = 25_000

QUERIES = (
    AttributeQuery(("name",)),
    AttributeQuery(("deathPlace",)),
    AttributeQuery(("occupation", "team")),
    AttributeQuery(("birthDate", "birthPlace", "almaMater")),
    AttributeQuery(("birthDate", "deathDate"), mode="all"),
    AttributeQuery(("name", "no_such_attribute")),
    AttributeQuery(("no_such_attribute",)),
    AttributeQuery(("name", "no_such_attribute"), mode="all"),
)


def checkpoint(table, live_count):
    """The per-1k-ops health check battery."""
    # exercise the cache first so the coherence check has entries to audit
    for query in QUERIES:
        fast = table.execute(query)
        assert fast.rows == table.execute_naive(query).rows, query.sql()
        # the scan the cache hid: the same plan, pruned per entity
        heaps = {pid: table.heap_of(pid) for pid in fast.plan.branch_pids}
        pruned = execute_union_all(
            fast.plan, heaps, table.dictionary, snapshot=table.snapshot
        )
        full = full_decode(table, fast.plan)
        assert pruned.rows == full.rows == fast.rows, query.sql()
        assert accounting(pruned.stats) == accounting(full.stats), query.sql()

    problems = table.partitioner.check_invariants()
    problems += table.check_consistency()
    problems += verify_cache_coherence(table.result_cache, table)
    assert problems == [], problems
    assert table.catalog.entity_count == live_count

    # Definition 1 efficiency of the live partitioning vs. the
    # unpartitioned baseline on the same workload
    dictionary = table.dictionary
    masks = [q.synopsis_mask(dictionary) for q in QUERIES]
    masks = [m for m in masks if m]
    entities = [
        (mask, size)
        for partition in table.catalog
        for _eid, mask, size in partition.members()
    ]
    partitioned = catalog_efficiency(table.catalog, masks)
    baseline = universal_table_efficiency(entities, masks)
    assert 0.0 < partitioned <= 1.0
    assert partitioned >= baseline, (
        f"partitioning efficiency {partitioned:.3f} fell below the "
        f"universal-table baseline {baseline:.3f}"
    )
    return partitioned


def test_soak_50k_mixed_operations():
    dataset = generate_dbpedia_persons(n_entities=N_ENTITIES, seed=WORKLOAD_SEED)
    trace = generate_trace(
        dataset,
        operations=OPERATIONS,
        insert_share=0.4,
        update_share=0.35,
        churn_update_share=0.4,
        warmup=WARMUP,
        seed=WORKLOAD_SEED,
    )
    # the advertised scale must be real: a drained trace (data set
    # exhausted, live set empty) would silently soak far fewer ops
    assert len(trace) == OPERATIONS + WARMUP
    table = CinderellaTable(
        CinderellaConfig(
            max_partition_size=300.0, weight=0.3, use_synopsis_index=True
        ),
        result_cache=QueryResultCache(max_entries=512),
    )

    live = set()
    efficiencies = []
    for index, operation in enumerate(trace):
        if operation.kind == "insert":
            table.insert(operation.attributes, entity_id=operation.entity_id)
            live.add(operation.entity_id)
        elif operation.kind == "update":
            table.update(operation.entity_id, operation.attributes)
        else:
            table.delete(operation.entity_id)
            live.discard(operation.entity_id)

        done = index + 1
        if done % MERGE_EVERY == 0:
            table.merge_small_partitions(min_fill=0.5)
        if done == REORGANIZE_AT:
            table.reorganize(order="size")
        if done % CHECK_EVERY == 0:
            efficiencies.append(checkpoint(table, len(live)))

    assert len(efficiencies) == (OPERATIONS + WARMUP) // CHECK_EVERY
    # the workload must have exercised the machinery it claims to soak
    assert table.partitioner.split_count > 0
    counters = table.query_counters
    assert counters.cache_hits > 0
    assert counters.cache_stale_drops > 0, (
        "50k mixed ops never invalidated a cached entry — the soak "
        "is not stressing invalidation"
    )
    assert counters.cache_hit_rate() > 0.0
    assert table.check_consistency() == []
