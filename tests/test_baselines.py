"""Tests for the baseline partitioners."""

import pytest

from repro.baselines.hash_partitioner import HashPartitioner
from repro.baselines.offline import (
    clustering_partitioning,
    jaccard,
    leader_clusters,
    oracle_partitioning,
    pack,
)
from repro.baselines.round_robin import RoundRobinPartitioner
from repro.core.config import CinderellaConfig
from repro.core.efficiency import catalog_efficiency, universal_table_efficiency
from repro.core.partitioner import CinderellaPartitioner
from repro.core.sizes import AttributeCountSizeModel


class TestHashPartitioner:
    def test_deterministic_assignment(self):
        a = HashPartitioner(4)
        b = HashPartitioner(4)
        for eid in range(50):
            assert a.insert(eid, 0b1).partition_id == b.insert(eid, 0b1).partition_id

    def test_respects_partition_budget(self):
        p = HashPartitioner(4)
        for eid in range(100):
            p.insert(eid, 0b1)
        assert len(p.catalog) <= 4

    def test_roughly_balanced(self):
        p = HashPartitioner(4)
        for eid in range(400):
            p.insert(eid, 0b1)
        sizes = [len(part) for part in p.catalog]
        assert max(sizes) < 2 * min(sizes)

    def test_delete_drops_empty(self):
        p = HashPartitioner(2)
        p.insert(1, 0b1)
        outcome = p.delete(1)
        assert outcome.dropped_partitions
        assert len(p.catalog) == 0
        # slot is reusable afterwards
        p.insert(1, 0b1)
        assert p.catalog.entity_count == 1

    def test_update_stays_in_place(self):
        p = HashPartitioner(2)
        pid = p.insert(1, 0b1).partition_id
        outcome = p.update(1, 0b111)
        assert outcome.in_place and outcome.partition_id == pid

    def test_validation(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestRoundRobinPartitioner:
    def test_fills_then_opens_next(self):
        p = RoundRobinPartitioner(3)
        pids = [p.insert(eid, 0b1).partition_id for eid in range(7)]
        assert pids[0] == pids[1] == pids[2]
        assert pids[3] == pids[4] == pids[5] != pids[0]
        assert pids[6] not in (pids[0], pids[3])

    def test_capacity_never_exceeded(self):
        p = RoundRobinPartitioner(5)
        for eid in range(23):
            p.insert(eid, 0b1)
        assert all(len(part) <= 5 for part in p.catalog)

    def test_delete_and_update(self):
        p = RoundRobinPartitioner(2)
        p.insert(1, 0b1)
        p.update(1, 0b11)
        assert p.catalog.get(p.catalog.partition_of(1)).mask == 0b11
        p.delete(1)
        assert len(p.catalog) == 0


class TestJaccardClustering:
    def test_jaccard_values(self):
        assert jaccard(0b11, 0b11) == 1.0
        assert jaccard(0b11, 0b00) == 0.0
        assert jaccard(0b11, 0b01) == 0.5
        assert jaccard(0, 0) == 1.0

    def test_leader_clusters_group_similar(self):
        entities = [(1, 0b0011), (2, 0b0011), (3, 0b1100), (4, 0b0111)]
        clusters = leader_clusters(entities, threshold=0.5)
        families = [sorted(eid for eid, _m in cluster) for cluster in clusters]
        assert [1, 2, 4] in families
        assert [3] in families

    def test_threshold_one_requires_identity(self):
        clusters = leader_clusters([(1, 0b01), (2, 0b11)], threshold=1.0)
        assert len(clusters) == 2

    def test_threshold_zero_lumps_everything(self):
        clusters = leader_clusters([(1, 0b01), (2, 0b10)], threshold=0.0)
        assert len(clusters) == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            leader_clusters([], threshold=1.5)


class TestOfflinePartitioners:
    ENTITIES = [(eid, 0b0011 if eid % 2 else 0b1100) for eid in range(20)]

    def test_offline_clustering_packs_to_capacity(self):
        catalog = clustering_partitioning(
            self.ENTITIES, max_partition_size=4, threshold=0.5
        )
        assert all(len(part) <= 4 for part in catalog)
        assert catalog.entity_count == 20
        assert len(leader_clusters(self.ENTITIES, threshold=0.5)) == 2

    def test_oracle_partitions_are_signature_pure(self):
        catalog = oracle_partitioning(self.ENTITIES, max_partition_size=4)
        for part in catalog:
            signatures = {mask for _eid, mask, _size in part.members()}
            assert len(signatures) == 1

    def test_an_entity_larger_than_b_gets_a_partition_of_its_own(self):
        entities = [(1, 0b1111), (2, 0b1)]
        catalog = pack([entities], 2, AttributeCountSizeModel())
        assert [len(part) for part in catalog] == [1, 1]
        assert catalog.check_invariants() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            oracle_partitioning(self.ENTITIES, max_partition_size=0)
        with pytest.raises(ValueError):
            clustering_partitioning(self.ENTITIES, max_partition_size=0)
        with pytest.raises(ValueError):
            clustering_partitioning(self.ENTITIES, 4, threshold=1.5)


class TestEfficiencyOrdering:
    """Oracle ≥ Cinderella ≥ universal table on structured data."""

    def test_ordering_on_two_family_data(self):
        entities = [(eid, 0b00001111 if eid % 2 else 0b11110000) for eid in range(60)]
        queries = [0b1, 0b10000000]

        cinderella = CinderellaPartitioner(
            CinderellaConfig(max_partition_size=10, weight=0.3)
        )
        for eid, mask in entities:
            cinderella.insert(eid, mask)
        oracle = oracle_partitioning(entities, 10)
        hashp = HashPartitioner(len(cinderella.catalog))
        for eid, mask in entities:
            hashp.insert(eid, mask)

        sized = [(mask, 1.0) for _eid, mask in entities]
        eff_universal = universal_table_efficiency(sized, queries)
        eff_hash = catalog_efficiency(hashp.catalog, queries)
        eff_cin = catalog_efficiency(cinderella.catalog, queries)
        eff_oracle = catalog_efficiency(oracle, queries)

        assert eff_oracle == 1.0
        assert eff_cin == 1.0  # clean two-family data: Cinderella is exact
        assert eff_cin > eff_hash
        assert eff_hash == pytest.approx(eff_universal, abs=0.05)
