"""Tests for attribute queries, pruning, rewriting, and the cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.dictionary import AttributeDictionary
from repro.core.config import CinderellaConfig
from repro.core.partitioner import CinderellaPartitioner
from repro.cost.model import CostModel
from repro.query.executor import ExecutionStats
from repro.query.pruning import clause_masks, prune, surviving_pids_from_index
from repro.query.query import AttributeQuery
from repro.query.rewrite import rewrite

masks = st.integers(min_value=0, max_value=2**16 - 1)


def prunes(mask: int, query: AttributeQuery, d: AttributeDictionary) -> bool:
    """Does the one rule prune a partition (or entity) with *mask*?"""
    surviving, pruned = prune([(0, mask)], clause_masks(query, d))
    assert len(surviving) + len(pruned) == 1
    return pruned == [0]


class TestAttributeQuery:
    def test_any_mode_matches_on_single_attribute(self):
        q = AttributeQuery(("a", "b"))
        assert q.matches({"a": 1})
        assert q.matches({"b": None})  # instantiated-with-NULL still counts
        assert not q.matches({"c": 1})

    def test_all_mode_requires_every_attribute(self):
        q = AttributeQuery(("a", "b"), mode="all")
        assert q.matches({"a": 1, "b": 2, "c": 3})
        assert not q.matches({"a": 1})

    def test_projection(self):
        q = AttributeQuery(("a", "b"))
        assert q.project({"a": 1, "c": 9}) == {"a": 1, "b": None}

    def test_sql_rendering(self):
        q = AttributeQuery(("a", "b"))
        assert q.sql() == (
            "SELECT a, b FROM universalTable "
            "WHERE a IS NOT NULL OR b IS NOT NULL"
        )
        q_all = AttributeQuery(("a",), mode="all")
        assert "AND" not in q_all.sql() and "a IS NOT NULL" in q_all.sql()

    def test_synopsis_mask_ignores_unknown(self):
        d = AttributeDictionary(["a"])
        assert AttributeQuery(("a", "zz")).synopsis_mask(d) == 0b1

    def test_validation(self):
        with pytest.raises(ValueError):
            AttributeQuery(())
        with pytest.raises(ValueError):
            AttributeQuery(("a", "a"))
        with pytest.raises(ValueError):
            AttributeQuery(("a",), mode="some")


class TestPruning:
    def test_any_mode_prunes_on_zero_overlap(self):
        d = AttributeDictionary(["a", "b", "c"])
        q = AttributeQuery(("a",))
        assert prunes(0b110, q, d)  # partition has only b, c
        assert not prunes(0b001, q, d)

    def test_all_mode_prunes_on_any_missing_attribute(self):
        d = AttributeDictionary(["a", "b", "c"])
        q = AttributeQuery(("a", "b"), mode="all")
        assert prunes(0b001, q, d)  # b missing from the synopsis
        assert not prunes(0b011, q, d)

    def test_all_mode_with_unknown_attribute_prunes_everything(self):
        d = AttributeDictionary(["a"])
        q = AttributeQuery(("a", "ghost"), mode="all")
        assert prunes(0b1, q, d)

    def test_entity_mask_qualifies_by_the_same_rule(self):
        """An entity qualifies exactly when the rule keeps its own mask
        (formerly ``AttributeQuery.matches_mask``)."""
        d = AttributeDictionary(["a", "b"])
        q_any = AttributeQuery(("a",))
        assert not prunes(0b01, q_any, d)
        assert prunes(0b10, q_any, d)
        q_all = AttributeQuery(("a", "b"), mode="all")
        assert not prunes(0b11, q_all, d)
        assert prunes(0b01, q_all, d)

    def test_entity_mask_with_unknown_attribute_in_all_mode_never_qualifies(self):
        d = AttributeDictionary(["a"])
        q = AttributeQuery(("a", "never"), mode="all")
        assert prunes(0b1, q, d)

    def test_clause_masks(self):
        d = AttributeDictionary(["a", "b", "c"])
        assert clause_masks(AttributeQuery(("a", "c")), d) == [0b101]
        assert clause_masks(AttributeQuery(("a", "c"), mode="all"), d) == [
            0b001, 0b100,
        ]
        assert clause_masks(AttributeQuery(("a", "zz"), mode="all"), d) == [
            0b001, 0,
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(masks, min_size=1, max_size=40), masks.filter(bool))
    def test_pruning_is_sound(self, entity_masks, query_mask):
        """No pruned partition may contain a relevant entity."""
        d = AttributeDictionary(f"a{i}" for i in range(16))
        query = AttributeQuery(d.decode(query_mask) or ("a0",))
        p = CinderellaPartitioner(CinderellaConfig(max_partition_size=6, weight=0.4))
        for eid, mask in enumerate(entity_masks):
            p.insert(eid, mask)
        _surviving, pruned = prune(
            ((partition, partition.mask) for partition in p.catalog),
            clause_masks(query, d),
        )
        qmask = query.synopsis_mask(d)
        for partition in pruned:
            for _eid, mask, _size in partition.members():
                assert mask & qmask == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(masks, min_size=1, max_size=40),
        st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True),
        st.sampled_from(["any", "all"]),
    )
    def test_index_resolution_equals_the_catalog_scan(
        self, entity_masks, attr_ids, mode
    ):
        """The posting-list resolution keeps exactly what the rule keeps."""
        d = AttributeDictionary(f"a{i}" for i in range(16))
        query = AttributeQuery(tuple(f"a{i}" for i in attr_ids), mode=mode)
        p = CinderellaPartitioner(CinderellaConfig(
            max_partition_size=6, weight=0.4, use_synopsis_index=True,
        ))
        for eid, mask in enumerate(entity_masks):
            p.insert(eid, mask)
        clauses = clause_masks(query, d)
        surviving, _pruned = prune(
            ((partition.pid, partition.mask) for partition in p.catalog), clauses
        )
        assert surviving_pids_from_index(p.catalog.index, clauses) == set(surviving)


class TestRewrite:
    def test_union_all_plan(self):
        d = AttributeDictionary(["a", "b", "c", "d"])
        p = CinderellaPartitioner(CinderellaConfig(max_partition_size=10, weight=0.4))
        p.insert(1, d.encode(["a", "b"]))
        p.insert(2, d.encode(["c", "d"]))
        plan = rewrite(AttributeQuery(("a",)), p.catalog, d)
        assert len(plan.branch_pids) == 1
        assert len(plan.pruned_pids) == 1
        assert plan.partitions_total == 2
        assert plan.pruning_ratio == 0.5
        assert "UNION ALL" not in plan.describe()  # single branch
        assert "pruned" in plan.describe()

    def test_fully_pruned_plan(self):
        d = AttributeDictionary(["a", "z"])
        p = CinderellaPartitioner(CinderellaConfig(max_partition_size=10, weight=0.4))
        p.insert(1, d.encode(["a"]))
        plan = rewrite(AttributeQuery(("z",)), p.catalog, d)
        assert plan.branch_pids == ()
        assert "empty result" in plan.describe()

    def test_multi_branch_plan_renders_union(self):
        d = AttributeDictionary(["a", "b"])
        p = CinderellaPartitioner(CinderellaConfig(max_partition_size=1, weight=0.4))
        p.insert(1, d.encode(["a"]))
        p.insert(2, d.encode(["a"]))
        plan = rewrite(AttributeQuery(("a",)), p.catalog, d)
        assert len(plan.branch_pids) == 2
        assert "UNION ALL" in plan.describe()


class TestEmptySynopsisQuery:
    """Regression (ISSUE 3 satellite): a query whose attributes are all
    unknown to the dictionary has an empty synopsis (``q = 0``) and must
    resolve to *zero* candidate partitions — in both modes and under both
    resolution strategies.  This is deliberately NOT the semantics of
    ``SynopsisIndex.candidate_pids(0)``: that call answers the *insert*
    question ("where could an attribute-less entity live?") and returns
    the partitions holding empty-synopsis entities."""

    def _partitioner(self):
        d = AttributeDictionary(["a", "b"])
        p = CinderellaPartitioner(
            CinderellaConfig(
                max_partition_size=10, weight=0.4, use_synopsis_index=True
            )
        )
        p.insert(1, d.encode(["a"]))
        p.insert(2, 0)  # an attribute-less entity
        return d, p

    @pytest.mark.parametrize("mode", ["any", "all"])
    @pytest.mark.parametrize("use_index", [False, True])
    def test_rewrite_yields_no_branches(self, mode, use_index):
        d, p = self._partitioner()
        query = AttributeQuery(("ghost", "phantom"), mode=mode)
        assert query.synopsis_mask(d) == 0
        plan = rewrite(query, p.catalog, d, use_index=use_index)
        assert plan.branch_pids == ()
        assert set(plan.pruned_pids) == set(p.catalog.partition_ids())

    @pytest.mark.parametrize("mode", ["any", "all"])
    def test_index_resolution_returns_empty_set(self, mode):
        d, p = self._partitioner()
        query = AttributeQuery(("ghost",), mode=mode)
        clauses = clause_masks(query, d)
        assert surviving_pids_from_index(p.catalog.index, clauses) == set()

    def test_contrast_with_index_empty_synopsis_posting(self):
        """The index's own empty-mask lookup is NOT empty here — it
        names the partition holding the attribute-less entity.  The
        query path must not confuse the two."""
        d, p = self._partitioner()
        assert p.catalog.index.candidate_pids(0) != set()

    def test_executor_returns_no_rows(self):
        from repro.table.partitioned import CinderellaTable

        table = CinderellaTable(
            CinderellaConfig(
                max_partition_size=10.0, weight=0.4, use_synopsis_index=True
            )
        )
        table.insert({"a": 1}, entity_id=1)
        result = table.execute(AttributeQuery(("ghost",)))
        assert result.rows == []
        assert result.stats.partitions_scanned == 0


class TestCostModel:
    def test_more_pages_cost_more(self):
        model = CostModel()
        small = ExecutionStats(pages_read=10, entities_read=100)
        big = ExecutionStats(pages_read=100, entities_read=100)
        assert model.query_time_ms(big) > model.query_time_ms(small)

    def test_union_overhead_only_for_branches(self):
        model = CostModel()
        plain = ExecutionStats(pages_read=10, entities_read=1000)
        unioned = ExecutionStats(pages_read=10, entities_read=1000, union_branches=5)
        assert model.query_time_ms(unioned) > model.query_time_ms(plain)

    def test_zero_stats_cost_zero(self):
        assert CostModel().query_time_ms(ExecutionStats()) == 0.0

    def test_insert_time_components(self):
        model = CostModel()
        base = model.insert_time_ms(0, 0, 0, 0)
        with_split = model.insert_time_ms(100, 500, 10_000, 2)
        assert with_split > base
        assert base == model.insert_base_ms
