"""The online partitioner contract, checked on every partitioner that
claims it (:class:`repro.core.partitioner.Partitioner`).

Cinderella, its workload-based mode and the hash and round-robin
baselines each run the same seeded insert/update/delete trace under each
size model: once directly (with payload lengths, so byte sizes are
exercised) and once behind a :class:`DistributedUniversalStore`, whose
placement must mirror the catalog exactly.
"""

import random

import pytest

from repro.baselines.hash_partitioner import HashPartitioner
from repro.baselines.round_robin import RoundRobinPartitioner
from repro.core.config import CinderellaConfig
from repro.core.partitioner import CinderellaPartitioner, Partitioner
from repro.core.sizes import AttributeCountSizeModel, ByteSizeModel, UniformSizeModel
from repro.core.workload_mode import WorkloadBasedPartitioner
from repro.distributed.store import DistributedUniversalStore
from tests.conftest import WORKLOAD_SEED

B = 12.0
QUERIES = [0b0000_0000_0111, 0b0000_0111_0000, 0b0111_0000_0000, 0b1000_1000_1000]
FAMILIES = [0b0000_0000_1111, 0b0000_1111_0000, 0b1111_0000_0000, 0b1001_0010_0100]
SIZE_MODELS = {
    "uniform": UniformSizeModel,
    "attribute-count": AttributeCountSizeModel,
    "bytes": ByteSizeModel,
}
#: the partitioners that bound every partition they insert into by B
BOUNDED = ("cinderella", "workload", "round-robin")


def make(kind: str, size_model) -> Partitioner:
    config = CinderellaConfig(max_partition_size=B, weight=0.3, size_model=size_model)
    if kind == "cinderella":
        return CinderellaPartitioner(config)
    if kind == "workload":
        return WorkloadBasedPartitioner(QUERIES, config)
    if kind == "hash":
        return HashPartitioner(6, size_model)
    return RoundRobinPartitioner(B, size_model)


def trace(seed: int, operations: int = 400):
    """``(kind, eid, mask, payload_bytes)`` steps; entities come from four
    attribute families with a random extra attribute, and every update
    or delete names a live entity."""
    rng = random.Random(seed)
    live: list[int] = []
    steps = []
    for eid in range(operations):
        roll = rng.random()
        mask = rng.choice(FAMILIES) | (1 << rng.randrange(12))
        payload = rng.randint(1, 8)
        if roll < 0.55 or len(live) < 5:
            live.append(eid)
            steps.append(("insert", eid, mask, payload))
        elif roll < 0.85:
            steps.append(("update", rng.choice(live), mask, payload))
        else:
            victim = live.pop(rng.randrange(len(live)))
            steps.append(("delete", victim, 0, 0))
    return steps


def assert_insert_bounded(catalog, outcome):
    for pid in [outcome.partition_id, *outcome.created_partitions]:
        if pid in catalog:
            partition = catalog.get(pid)
            assert partition.total_size <= B or len(partition) == 1, pid


@pytest.mark.parametrize("size_name", sorted(SIZE_MODELS))
@pytest.mark.parametrize("kind", ["cinderella", "workload", "hash", "round-robin"])
def test_trace_keeps_the_contract(kind, size_name):
    steps = trace(WORKLOAD_SEED)

    size_model = SIZE_MODELS[size_name]()
    partitioner = make(kind, size_model)
    expected_sizes = {}
    for op, eid, mask, payload in steps:
        if op == "delete":
            outcome = partitioner.delete(eid)
            del expected_sizes[eid]
        else:
            outcome = getattr(partitioner, op)(eid, mask, payload_bytes=payload)
            expected_sizes[eid] = size_model.entity_size(mask, payload)
        assert outcome.entity_id == eid
        if op == "insert" and kind in BOUNDED:
            assert_insert_bounded(partitioner.catalog, outcome)
    catalog = partitioner.catalog
    assert catalog.check_invariants() == []
    # SIZE(e) prices the stored entity: attribute synopsis and payload
    assert {
        eid: size for part in catalog for eid, _mask, size in part.members()
    } == expected_sizes

    store = DistributedUniversalStore(3, make(kind, SIZE_MODELS[size_name]()))
    for op, eid, mask, _payload in steps:
        if op == "delete":
            store.delete(eid)
        else:
            outcome = getattr(store, op)(eid, mask)
            if op == "insert" and kind in BOUNDED:
                assert_insert_bounded(store.catalog, outcome)
    assert store.catalog.check_invariants() == []
    assert store.check_placement() == []
