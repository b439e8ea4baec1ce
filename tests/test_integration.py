"""End-to-end integration tests reproducing the paper's claims in miniature.

Each test here is a scaled-down version of one evaluation finding; the
full-size versions live in ``benchmarks/``.
"""

import pytest

from repro.core.config import CinderellaConfig
from repro.core.efficiency import catalog_efficiency, universal_table_efficiency
from repro.cost.model import CostModel
from repro.table.partitioned import CinderellaTable, unpartitioned_table
from repro.workloads.dbpedia import generate_dbpedia_persons
from repro.workloads.querygen import build_query_workload, representative_queries


@pytest.fixture(scope="module")
def loaded_tables():
    """DBpedia mini data set loaded into both table layouts."""
    dataset = generate_dbpedia_persons(n_entities=4000, seed=11)
    # 1 KiB pages keep partitions multi-page at this miniature scale, so
    # the per-page I/O accounting shows the paper's effect clearly
    cinderella = CinderellaTable(
        CinderellaConfig(max_partition_size=120, weight=0.3), page_size=1024
    )
    universal = unpartitioned_table(page_size=1024)
    for entity in dataset.entities:
        cinderella.insert(entity.attributes, entity_id=entity.entity_id)
        universal.insert(entity.attributes, entity_id=entity.entity_id)
    return dataset, cinderella, universal


@pytest.fixture(scope="module")
def workload(loaded_tables):
    dataset, cinderella, _universal = loaded_tables
    d = cinderella.dictionary
    masks = [mask for mask in cinderella.entity_masks().values()]
    return representative_queries(
        build_query_workload(masks, d, max_triples=60), per_bucket=2
    )


class TestSectionVB:
    """Irregular data: selective queries benefit, unselective ones pay."""

    def test_physical_layout_consistent_after_load(self, loaded_tables):
        _dataset, cinderella, _universal = loaded_tables
        assert cinderella.check_consistency() == []
        assert cinderella.partitioner.split_count > 0

    def test_identical_answers_on_both_layouts(self, loaded_tables, workload):
        _dataset, cinderella, universal = loaded_tables
        for spec in workload[:12]:
            rows_c = sorted(map(repr, cinderella.execute(spec.query).rows))
            rows_u = sorted(map(repr, universal.execute(spec.query).rows))
            assert rows_c == rows_u

    def test_selective_queries_read_less_data(self, loaded_tables, workload):
        _dataset, cinderella, universal = loaded_tables
        selective = [s for s in workload if s.selectivity < 0.05]
        assert selective, "workload must contain selective queries"
        for spec in selective:
            stats_c = cinderella.execute(spec.query).stats
            stats_u = universal.execute(spec.query).stats
            assert stats_c.entities_read < stats_u.entities_read / 2

    def test_cost_model_speedup_for_selective_queries(self, loaded_tables, workload):
        model = CostModel()
        _dataset, cinderella, universal = loaded_tables
        selective = [s for s in workload if s.selectivity < 0.05]
        speedups = []
        for spec in selective:
            time_c = model.query_time_ms(cinderella.execute(spec.query).stats)
            time_u = model.query_time_ms(universal.execute(spec.query).stats)
            speedups.append(time_u / time_c)
        assert sum(speedups) / len(speedups) > 1.5

    def test_unselective_queries_pay_union_overhead(self, loaded_tables, workload):
        """Figure 5's right side: selectivity > 0.3 is slower on Cinderella."""
        model = CostModel()
        _dataset, cinderella, universal = loaded_tables
        broad = [s for s in workload if s.selectivity > 0.9]
        assert broad
        for spec in broad:
            time_c = model.query_time_ms(cinderella.execute(spec.query).stats)
            time_u = model.query_time_ms(universal.execute(spec.query).stats)
            assert time_c > time_u

    def test_efficiency_improves_over_universal_table(self, loaded_tables, workload):
        _dataset, cinderella, _universal = loaded_tables
        d = cinderella.dictionary
        queries = [s.query.synopsis_mask(d) for s in workload]
        entities = [(m, 1.0) for m in cinderella.entity_masks().values()]
        eff_c = catalog_efficiency(cinderella.catalog, queries)
        eff_u = universal_table_efficiency(entities, queries)
        assert eff_c > eff_u


class TestWeightInfluence:
    """Figure 7 in miniature: weight sweeps change the partition count."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dbpedia_persons(n_entities=1500, seed=13)

    def partition_count(self, dataset, weight: float) -> int:
        from repro.core.partitioner import CinderellaPartitioner

        d = dataset.dictionary()
        p = CinderellaPartitioner(
            CinderellaConfig(max_partition_size=500, weight=weight)
        )
        for entity in dataset.entities:
            p.insert(entity.entity_id, entity.synopsis_mask(d))
        return len(p.catalog)

    def test_lower_weight_more_partitions(self, dataset):
        counts = {w: self.partition_count(dataset, w) for w in (0.0, 0.3, 0.8)}
        assert counts[0.0] > counts[0.3] > counts[0.8]

    def test_weight_zero_partitions_are_homogeneous(self, dataset):
        from repro.core.partitioner import CinderellaPartitioner

        d = dataset.dictionary()
        p = CinderellaPartitioner(CinderellaConfig(max_partition_size=500, weight=0.0))
        for entity in dataset.entities[:400]:
            p.insert(entity.entity_id, entity.synopsis_mask(d))
        assert all(part.sparseness() == 0.0 for part in p.catalog)


class TestModificationMix:
    def test_sustained_mixed_workload_stays_consistent(self):
        import random

        dataset = generate_dbpedia_persons(n_entities=800, seed=5)
        table = CinderellaTable(CinderellaConfig(max_partition_size=60, weight=0.3))
        rng = random.Random(17)
        live = []
        for entity in dataset.entities[:400]:
            table.insert(entity.attributes, entity_id=entity.entity_id)
            live.append(entity.entity_id)
        for entity in dataset.entities[400:]:
            roll = rng.random()
            if roll < 0.6:
                table.insert(entity.attributes, entity_id=entity.entity_id)
                live.append(entity.entity_id)
            elif roll < 0.8 and live:
                victim = live.pop(rng.randrange(len(live)))
                table.delete(victim)
            elif live:
                target = live[rng.randrange(len(live))]
                table.update(target, entity.attributes)
        assert table.check_consistency() == []
        assert len(table) == len(live)
