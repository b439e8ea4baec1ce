"""Caching extension bench — the buffer pool over Cinderella partitions.

The paper's conclusions list caching among the physical-design aspects to
integrate next.  This bench runs a skewed query workload (selective
queries over popular attributes repeat) against the partitioned table
with and without a buffer pool:

* without a pool, every repetition pays the full physical scan;
* with a pool sized at a fraction of the data, the hot partitions stay
  resident, so the *partitioned* layout caches far better than the
  universal table — partitions concentrate the working set, the
  unpartitioned table smears it over all pages.
"""

from repro.core.config import CinderellaConfig
from repro.reporting.tables import format_table
from repro.storage.buffer import BufferPool
from repro.table.partitioned import CinderellaTable, unpartitioned_table

from conftest import N_ENTITIES, PAGE_SIZE


def load_tables(dbpedia, pool_pages):
    pool_c = BufferPool(pool_pages)
    pool_u = BufferPool(pool_pages)
    cinderella = CinderellaTable(
        CinderellaConfig(max_partition_size=500, weight=0.3),
        page_size=PAGE_SIZE,
        buffer_pool=pool_c,
    )
    universal = unpartitioned_table(page_size=PAGE_SIZE, buffer_pool=pool_u)
    for entity in dbpedia.entities[: min(N_ENTITIES, 10_000)]:
        cinderella.insert(entity.attributes, entity_id=entity.entity_id)
        universal.insert(entity.attributes, entity_id=entity.entity_id)
    return cinderella, universal, pool_c, pool_u


def test_buffer_pool_over_partitions(benchmark, dbpedia, query_workload):
    selective = [s.query for s in query_workload if s.selectivity < 0.1][:2]
    assert selective, "need selective queries for a hot working set"

    # pool sized at ~50 % of the table's pages
    probe = CinderellaTable(
        CinderellaConfig(max_partition_size=500, weight=0.3), page_size=PAGE_SIZE
    )
    for entity in dbpedia.entities[:2000]:
        probe.insert(entity.attributes, entity_id=entity.entity_id)
    pages_per_entity = sum(
        probe.heap_of(p.pid).page_count for p in probe.catalog
    ) / len(probe)
    total_pages = int(pages_per_entity * min(N_ENTITIES, 10_000))
    pool_pages = max(8, total_pages // 2)

    cinderella, universal, pool_c, pool_u = load_tables(dbpedia, pool_pages)
    pool_c.reset()
    pool_u.reset()

    repeats = 5
    for _round in range(repeats):
        for query in selective:
            cinderella.execute(query)
            universal.execute(query)

    print()
    print(
        format_table(
            ["layout", "pool pages", "hits", "misses", "hit rate"],
            [
                ["cinderella", pool_pages, pool_c.hits, pool_c.misses,
                 pool_c.hit_rate],
                ["universal table", pool_pages, pool_u.hits, pool_u.misses,
                 pool_u.hit_rate],
            ],
            title=(
                f"Buffer pool (50 % of data) under a repeated selective "
                f"workload ({repeats}x{len(selective)} queries)"
            ),
        )
    )

    # benchmark kernel: one warm selective query on the partitioned table
    benchmark(lambda: cinderella.execute(selective[0]))

    # the partitioned working set fits the pool: high hit rate after warmup
    assert pool_c.hit_rate > 0.5
    # the universal table cycles over 2x the pool: LRU keeps missing
    assert pool_u.hit_rate < pool_c.hit_rate
