"""Tests for the partitioning efficiency metric (Definition 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hash_partitioner import HashPartitioner
from repro.baselines.offline import clustering_partitioning, oracle_partitioning
from repro.baselines.round_robin import RoundRobinPartitioner
from repro.baselines.vertical import fragment_cells, hidden_schema_fragments
from repro.core.config import CinderellaConfig
from repro.core.efficiency import (
    catalog_cells,
    catalog_efficiency,
    cell_efficiency,
    partitioning_efficiency,
    universal_table_efficiency,
)
from repro.core.partitioner import CinderellaPartitioner
from repro.workloads.dbpedia import generate_dbpedia_persons
from repro.workloads.querygen import build_query_workload, representative_queries

masks = st.integers(min_value=0, max_value=2**16 - 1)


class TestHandComputedExamples:
    def test_perfect_partitioning(self):
        # two homogeneous partitions, each query touches exactly one
        entities = [(0b01, 1.0), (0b01, 1.0), (0b10, 1.0), (0b10, 1.0)]
        partitions = [(0b01, 2.0), (0b10, 2.0)]
        queries = [0b01, 0b10]
        assert partitioning_efficiency(entities, queries, partitions) == 1.0

    def test_universal_table_reads_everything(self):
        # one partition holding all entities; query 0b01 matches half of
        # the entities but reads all four
        entities = [(0b01, 1.0), (0b01, 1.0), (0b10, 1.0), (0b10, 1.0)]
        assert universal_table_efficiency(entities, [0b01]) == pytest.approx(0.5)

    def test_mixed_partition_reads_irrelevant_entities(self):
        # partition {e1: a, e2: b} read fully by a query for a
        entities = [(0b01, 1.0), (0b10, 1.0)]
        partitions = [(0b11, 2.0)]
        assert partitioning_efficiency(entities, [0b01], partitions) == 0.5

    def test_size_weighting(self):
        # the relevant entity is big, the irrelevant one small
        entities = [(0b01, 9.0), (0b10, 1.0)]
        partitions = [(0b11, 10.0)]
        assert partitioning_efficiency(entities, [0b01], partitions) == 0.9

    def test_vacuous_workload_is_perfect(self):
        entities = [(0b01, 1.0)]
        partitions = [(0b01, 1.0)]
        assert partitioning_efficiency(entities, [0b100], partitions) == 1.0

    def test_multiple_queries_accumulate(self):
        entities = [(0b01, 1.0), (0b10, 1.0)]
        partitions = [(0b11, 2.0)]
        # each query matches 1 of 2 read entities: (1+1)/(2+2)
        assert partitioning_efficiency(entities, [0b01, 0b10], partitions) == 0.5


class TestProperties:
    @given(
        st.lists(masks, min_size=1, max_size=30),
        st.lists(masks, min_size=1, max_size=8),
    )
    def test_bounded_between_zero_and_one(self, entity_masks, queries):
        p = CinderellaPartitioner(CinderellaConfig(max_partition_size=5, weight=0.4))
        for eid, mask in enumerate(entity_masks):
            p.insert(eid, mask)
        value = catalog_efficiency(p.catalog, queries)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(masks, min_size=1, max_size=40),
        st.lists(masks, min_size=1, max_size=6),
    )
    def test_partitioning_never_worse_than_universal(self, entity_masks, queries):
        """Soundly pruned partitions can only reduce data read, never add."""
        p = CinderellaPartitioner(CinderellaConfig(max_partition_size=8, weight=0.3))
        for eid, mask in enumerate(entity_masks):
            p.insert(eid, mask)
        entities = [(mask, 1.0) for mask in entity_masks]
        partitioned = catalog_efficiency(p.catalog, queries)
        universal = universal_table_efficiency(entities, queries)
        assert partitioned >= universal - 1e-12

    def test_catalog_efficiency_matches_raw_computation(self):
        p = CinderellaPartitioner(CinderellaConfig(max_partition_size=4, weight=0.4))
        entity_masks = [0b011, 0b011, 0b110, 0b1100, 0b1100]
        for eid, mask in enumerate(entity_masks):
            p.insert(eid, mask)
        queries = [0b001, 0b100]
        raw = partitioning_efficiency(
            [(m, 1.0) for m in entity_masks],
            queries,
            [(part.mask, part.total_size) for part in p.catalog],
        )
        assert catalog_efficiency(p.catalog, queries) == pytest.approx(raw)


class TestComparatorScoresPinned:
    """``bench_efficiency`` and ``bench_vertical`` at a small fixed scale:
    1,500 DBpedia persons, B = 100, w = 0.2, the representative workload.
    The expected values are those the comparators scored before they
    became functions over one packer and one cell-level Definition 1;
    any change to them is a change in what the benches report."""

    @pytest.fixture(scope="class")
    def scored(self):
        dataset = generate_dbpedia_persons(n_entities=1500, seed=42)
        dictionary = dataset.dictionary()
        entities = [
            (entity.entity_id, entity.synopsis_mask(dictionary))
            for entity in dataset.entities
        ]
        masks = [mask for _eid, mask in entities]
        specs = build_query_workload(masks, dictionary, max_triples=200)
        queries = [
            spec.query.synopsis_mask(dictionary)
            for spec in representative_queries(specs, bucket_width=0.05, per_bucket=3)
        ]
        cinderella = CinderellaPartitioner(
            CinderellaConfig(max_partition_size=100, weight=0.2)
        )
        for eid, mask in entities:
            cinderella.insert(eid, mask)
        hashed = HashPartitioner(num_partitions=len(cinderella.catalog))
        round_robin = RoundRobinPartitioner(max_partition_size=100)
        for eid, mask in entities:
            hashed.insert(eid, mask)
            round_robin.insert(eid, mask)
        catalogs = {
            "hash": hashed.catalog,
            "round robin": round_robin.catalog,
            "offline clustering": clustering_partitioning(
                entities, max_partition_size=100, threshold=0.4
            ),
            "cinderella": cinderella.catalog,
            "oracle": oracle_partitioning(entities, max_partition_size=100),
        }
        scores = {
            name: (len(catalog), catalog_efficiency(catalog, queries))
            for name, catalog in catalogs.items()
        }
        scores["universal table"] = (
            1,
            universal_table_efficiency([(mask, 1.0) for mask in masks], queries),
        )
        scores["horizontal cells"] = (
            len(cinderella.catalog),
            cell_efficiency(masks, catalog_cells(cinderella.catalog), queries),
        )
        for k in (1, 3):
            fragments = hidden_schema_fragments(
                masks, len(dictionary), k_neighbors=k, min_jaccard=0.05
            )
            scores[f"vertical k={k}"] = (
                len(fragments),
                cell_efficiency(masks, fragment_cells(fragments, masks), queries),
            )
        return len(queries), scores

    def test_scores_match_the_recorded_values(self, scored):
        query_count, scores = scored
        assert query_count == 63
        assert scores == {
            "universal table": (1, 0.524973544973545),
            "hash": (113, 0.5611800504507766),
            "round robin": (15, 0.5272051009564294),
            "offline clustering": (45, 0.5655946096929759),
            "cinderella": (113, 0.8043256213622141),
            "oracle": (1383, 1.0),
            "horizontal cells": (113, 0.1174600483235132),
            "vertical k=1": (19, 0.15810398460839736),
            "vertical k=3": (7, 0.09199036474793777),
        }
