"""Tests for workload-based Cinderella (Section III)."""

import pytest

from repro.core.config import CinderellaConfig
from repro.core.sizes import AttributeCountSizeModel, ByteSizeModel
from repro.core.workload_mode import WorkloadBasedPartitioner, WorkloadSynopsisEncoder


class TestEncoder:
    def test_encode_marks_relevant_queries(self):
        encoder = WorkloadSynopsisEncoder([0b011, 0b100, 0b110])
        assert encoder.encode(0b001) == 0b001  # only query 0
        assert encoder.encode(0b100) == 0b110  # queries 1 and 2
        assert encoder.encode(0b111) == 0b111

    def test_encode_irrelevant_entity(self):
        encoder = WorkloadSynopsisEncoder([0b1])
        assert encoder.encode(0b10) == 0

    def test_query_synopsis(self):
        encoder = WorkloadSynopsisEncoder([0b1, 0b10])
        assert encoder.query_synopsis(0) == 0b01
        assert encoder.query_synopsis(1) == 0b10
        with pytest.raises(IndexError):
            encoder.query_synopsis(2)

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSynopsisEncoder([])

    def test_properties(self):
        encoder = WorkloadSynopsisEncoder([0b1, 0b10])
        assert encoder.query_count == 2
        assert encoder.query_masks == (0b1, 0b10)


class TestWorkloadBasedPartitioner:
    def workload(self):
        # queries in attribute space: q0 = {a}, q1 = {c,d}
        return [0b0011, 0b1100]

    def test_entities_cluster_by_query_relevance(self):
        p = WorkloadBasedPartitioner(
            self.workload(), CinderellaConfig(max_partition_size=10, weight=0.4)
        )
        # both relevant only to q0 — even with different attribute sets
        pid_1 = p.insert(1, 0b0001).partition_id
        pid_2 = p.insert(2, 0b0010).partition_id
        assert pid_1 == pid_2
        # relevant only to q1: separate partition
        pid_3 = p.insert(3, 0b1000).partition_id
        assert pid_3 != pid_1

    def test_partitions_for_query(self):
        p = WorkloadBasedPartitioner(
            self.workload(), CinderellaConfig(max_partition_size=10, weight=0.4)
        )
        p.insert(1, 0b0001)
        p.insert(2, 0b1000)
        q0_partitions = p.partitions_for_query(0)
        q1_partitions = p.partitions_for_query(1)
        assert p.catalog.partition_of(1) in q0_partitions
        assert p.catalog.partition_of(1) not in q1_partitions
        assert p.catalog.partition_of(2) in q1_partitions

    def test_delete_and_update_pass_through(self):
        p = WorkloadBasedPartitioner(
            self.workload(), CinderellaConfig(max_partition_size=10, weight=0.4)
        )
        p.insert(1, 0b0001)
        p.update(1, 0b1000)
        assert p.partitions_for_query(1) == [p.catalog.partition_of(1)]
        p.delete(1)
        assert p.catalog.entity_count == 0

    def test_size_comes_from_the_attribute_synopsis(self):
        # none of the 3 attributes is queried: the workload-space synopsis
        # is empty, but the stored entity still weighs 3 cells
        p = WorkloadBasedPartitioner(
            [0b0001, 0b0010],
            CinderellaConfig(max_partition_size=6, size_model=AttributeCountSizeModel()),
        )
        for eid in range(20):
            p.insert(eid, 0b11100)
        sizes = [partition.total_size for partition in p.catalog]
        assert sum(sizes) == 60.0
        assert max(sizes) <= 6.0
        assert len(sizes) >= 10
        assert p.partitioner.check_invariants() == []

    def test_payload_bytes_price_the_entity(self):
        p = WorkloadBasedPartitioner(
            self.workload(),
            CinderellaConfig(max_partition_size=100, size_model=ByteSizeModel()),
        )
        pid = p.insert(1, 0b0001, payload_bytes=40).partition_id
        assert p.catalog.get(pid).total_size == 40.0
        p.update(1, 0b0011, payload_bytes=25)
        assert p.catalog.get(p.catalog.partition_of(1)).total_size == 25.0
