"""Tests for the table over every layout, the Cinderella table, and views."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HashPartitioner, RoundRobinPartitioner
from repro.core.config import CinderellaConfig
from repro.query.query import AttributeQuery
from repro.storage.buffer import BufferPool
from repro.storage.page import PageFullError
from repro.table.partitioned import CinderellaTable, unpartitioned_table
from repro.table.views import TableView


def product_catalog() -> list[dict]:
    """The Figure 1 electronics example."""
    return [
        {"name": "Canon PowerShot S120", "resolution": 12.1, "aperture": 2.0,
         "screen": 3, "weight": 198},
        {"name": "Sony SLT-A99", "resolution": 24, "screen": 3, "weight": 733},
        {"name": "Samsung Galaxy S4", "resolution": 13, "screen": 4.3,
         "storage": "32GB", "weight": 133},
        {"name": "Apple iPod touch", "resolution": 5, "screen": 4,
         "storage": "64GB", "weight": 88},
        {"name": "LG 60LA7408", "resolution": "Full HD", "screen": 40,
         "tuner": "DVB-T/C/S", "weight": 9800},
        {"name": "WD4000FYYZ", "storage": "4TB", "rotation": 7200,
         "form_factor": '3.5"', "weight": 150},
        {"name": "Garmin Dakota 20", "screen": 2.6, "weight": 150},
    ]


LAYOUTS = {
    "cinderella": lambda: CinderellaTable(
        CinderellaConfig(max_partition_size=4, weight=0.4)
    ),
    "hash": lambda: CinderellaTable(partitioner=HashPartitioner(4)),
    "round_robin": lambda: CinderellaTable(partitioner=RoundRobinPartitioner(3)),
    "unpartitioned": unpartitioned_table,
}
ATTRS = [f"a{i}" for i in range(12)]


def row_of(mask: int, value: int) -> dict:
    return {ATTRS[i]: value + i for i in range(12) if mask >> i & 1}


#: one modification: (kind, the row's attribute mask, a number that
#: picks the explicit id or the victim)
MODIFICATIONS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "insert_at", "update", "delete")),
        st.integers(1, 2**12 - 1),
        st.integers(0, 39),
    ),
    min_size=1,
    max_size=60,
)


class TestEveryLayoutIsATable:
    """One table class over every layout: an insert/update/delete
    sequence leaves each layout consistent, answering every query as
    the unpruned oracle and a plain model of the live entities do."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @settings(max_examples=40, deadline=None)
    @given(MODIFICATIONS, st.lists(st.integers(1, 2**12 - 1), max_size=4))
    def test_layout_is_a_table(self, layout, modifications, query_masks):
        table = LAYOUTS[layout]()
        live: dict[int, dict] = {}
        next_eid = 0
        for step, (kind, mask, pick) in enumerate(modifications):
            row = row_of(mask, step)
            if kind.startswith("insert") or not live:
                eid = next_eid + pick if kind == "insert_at" else None
                outcome = table.insert(row, entity_id=eid)
                assert outcome.entity_id == (next_eid if eid is None else eid)
                next_eid = outcome.entity_id + 1
                live[outcome.entity_id] = row
                continue
            eid = sorted(live)[pick % len(live)]
            if kind == "update":
                table.update(eid, row)
                live[eid] = row
            else:
                table.delete(eid)
                del live[eid]
        # the guards every layout shares, and they leave it untouched
        if live:
            with pytest.raises(ValueError):
                table.insert({"a0": 1}, entity_id=min(live))
        with pytest.raises(KeyError):
            table.delete(next_eid)
        with pytest.raises(KeyError):
            table.update(next_eid, {"a0": 1})
        assert table.check_consistency() == []
        assert len(table) == len(live)
        assert table.entity_ids() == sorted(live)
        assert sorted(entity.entity_id for entity in table.scan()) == sorted(live)
        for eid, row in live.items():
            assert eid in table and table.get(eid).attributes == row
        queries = [
            AttributeQuery(
                tuple(a for i, a in enumerate(ATTRS) if mask >> i & 1), mode=mode
            )
            for mask in query_masks
            for mode in ("any", "all")
        ] + [AttributeQuery(("never_seen",)), AttributeQuery(tuple(ATTRS))]
        for query in queries:
            result = table.execute(query)
            assert result.rows == table.execute_naive(query).rows
            expected = [query.project(a) for a in live.values() if query.matches(a)]
            assert sorted(map(repr, result.rows)) == sorted(map(repr, expected))
            if layout == "unpartitioned":
                # a plain relation: no UNION ALL, and what it reads it reads whole
                assert table.partition_count() <= 1
                assert result.stats.union_branches == 0
                if result.stats.partitions_scanned:
                    assert result.stats.entities_read == len(live)

    def test_config_and_partitioner_are_exclusive(self):
        with pytest.raises(ValueError):
            CinderellaTable(CinderellaConfig(), partitioner=HashPartitioner(2))

    @pytest.mark.parametrize("operation", [
        lambda table: table.config,
        lambda table: table.merge_small_partitions(),
        lambda table: table.reorganize(),
    ], ids=["config", "merge", "reorganize"])
    def test_cinderella_only_operations_refuse_other_layouts(self, operation):
        table = CinderellaTable(partitioner=RoundRobinPartitioner(2))
        for value in range(5):
            table.insert({"a": value})
        with pytest.raises(TypeError):
            operation(table)
        assert table.check_consistency() == []
        assert table.partition_count() == 3


class TestUniversalTable:
    """The paper's unpartitioned universal table: the one-partition layout."""

    def test_insert_get_roundtrip(self):
        t = unpartitioned_table()
        eid = t.insert({"name": "Canon", "weight": 198}).entity_id
        entity = t.get(eid)
        assert entity.attributes == {"name": "Canon", "weight": 198}
        assert len(t) == 1 and eid in t

    def test_explicit_entity_ids(self):
        t = unpartitioned_table()
        assert t.insert({"a": 1}, entity_id=42).entity_id == 42
        assert t.insert({"a": 1}).entity_id == 43
        with pytest.raises(ValueError):
            t.insert({"a": 1}, entity_id=42)

    def test_delete_and_update(self):
        t = unpartitioned_table()
        eid = t.insert({"a": 1}).entity_id
        t.update(eid, {"b": 2})
        assert t.get(eid).attributes == {"b": 2}
        t.delete(eid)
        assert eid not in t

    def test_query_is_full_scan(self):
        t = unpartitioned_table()
        for row in product_catalog():
            t.insert(row)
        result = t.execute(AttributeQuery(("aperture",)))
        assert len(result.rows) == 1
        assert result.stats.entities_read == 7  # everything was read
        assert result.stats.union_branches == 0

    def test_scan_yields_all(self):
        t = unpartitioned_table()
        for row in product_catalog():
            t.insert(row)
        assert len(list(t.scan())) == 7


class TestCinderellaTable:
    def make(self, b=3, w=0.4) -> CinderellaTable:
        return CinderellaTable(CinderellaConfig(max_partition_size=b, weight=w))

    def test_insert_and_get(self):
        t = self.make()
        outcome = t.insert({"name": "Canon", "aperture": 2.0})
        assert t.get(outcome.entity_id).attributes["name"] == "Canon"

    def test_splits_propagate_to_storage(self):
        t = self.make(b=2)
        for row in product_catalog():
            t.insert(row)
        assert t.partitioner.split_count >= 1
        assert t.check_consistency() == []
        assert len(list(t.scan())) == 7

    def test_query_prunes_partitions(self):
        t = self.make(b=4)
        for row in product_catalog():
            t.insert(row)
        result = t.execute(AttributeQuery(("rotation",)))
        assert [row["rotation"] for row in result.rows] == [7200]
        assert result.stats.partitions_pruned >= 1
        assert result.stats.entities_read < 7

    def test_delete_and_update_keep_physical_consistency(self):
        t = self.make(b=3)
        outcomes = [t.insert(row) for row in product_catalog()]
        t.delete(outcomes[0].entity_id)
        t.update(outcomes[5].entity_id, {"name": "WD", "aperture": 9.9})
        assert t.check_consistency() == []
        assert len(t) == 6
        # the Canon (with aperture) was deleted; the updated WD now has one
        result = t.execute(AttributeQuery(("aperture",)))
        assert result.rows == [{"aperture": 9.9}]

    def test_update_in_place(self):
        t = self.make(b=5)
        eid = t.insert({"a": 1, "b": 2}).entity_id
        t.insert({"a": 9, "b": 9})
        outcome = t.update(eid, {"a": 7, "b": 8})
        assert outcome.in_place
        assert t.get(eid).attributes == {"a": 7, "b": 8}

    def test_unknown_entity_operations_raise(self):
        t = self.make()
        with pytest.raises(KeyError):
            t.delete(404)
        with pytest.raises(KeyError):
            t.update(404, {"a": 1})

    def test_unstorable_entity_id_is_refused_and_poisons_nothing(self):
        """An id past the record reader's width was once stored, and
        every read of its partition failed from then on."""
        t = self.make()
        t.insert({"a": 1})
        with pytest.raises(ValueError):
            t.insert({"a": 2}, entity_id=2**70)
        assert t.execute(AttributeQuery(("a",))).rows == [{"a": 1}]
        assert t.insert({"a": 3}).entity_id == 1  # the id counter stayed put
        assert t.check_consistency() == []

    @pytest.mark.parametrize("rows", [
        [{"a": 9}],
        [{"z": 9}],
        [{"a": 9}] * 5,
    ], ids=["existing_partition", "new_partition", "split"])
    def test_consistency_check_reports_a_stored_entity_the_catalog_lacks(
        self, rows
    ):
        """A rolled-back catalog transaction restores the catalog but not
        the heaps; the check reports that state instead of raising."""
        t = self.make(b=5)
        t.insert({"a": 1}, entity_id=1)
        txn = t.catalog.begin_transaction()
        outcomes = [
            t.insert(row, entity_id=eid) for eid, row in enumerate(rows, 2)
        ]
        txn.rollback()
        assert (sum(o.splits for o in outcomes) > 0) == (len(rows) > 1)
        problems = t.check_consistency()
        assert "entity 2 is stored but not in the catalog" in problems

    def test_consistency_check_reports_a_member_mask_its_record_lacks(self):
        """The pruned scan skips a record by its entity's catalog mask
        without decoding it, so a mask that disagrees with the stored
        attributes would silently drop (or keep) rows: the check must
        report it.  The corruption keeps the catalog's own invariants
        (synopsis, counts, index) intact, so only this comparison sees it."""
        t = self.make(b=5)
        t.insert({"a": 1, "b": 1}, entity_id=1)
        t.insert({"a": 2}, entity_id=2)
        partition = t.catalog.get(t.catalog.partition_of(2))
        assert 1 in partition and partition.mask == t.dictionary.encode(["a", "b"])
        partition.update_member(2, partition.mask, partition.member(2)[1])
        assert t.partitioner.check_invariants() == []
        assert t.check_consistency() == [
            "entity 2: stored attributes differ from its catalog synopsis"
        ]

    @pytest.mark.parametrize("op", ["insert", "update"])
    def test_a_record_no_page_holds_is_refused_before_anything_moves(self, op):
        """Such a write once split the full partition (or dropped the old
        record) before the heap refused the record; the moves outlived
        the catalog rollback around it."""
        t = self.make(b=3)
        for eid in range(3):
            t.insert({"a": eid, "b": eid}, entity_id=eid)
        before = t.execute_naive(AttributeQuery(("a",))).rows
        txn = t.catalog.begin_transaction()
        with pytest.raises(PageFullError):
            if op == "insert":
                t.insert({"a": "x" * t.page_size}, entity_id=3)
            else:
                t.update(0, {"a": "x" * t.page_size})
        txn.rollback()
        assert t.check_consistency() == []
        assert t.execute_naive(AttributeQuery(("a",))).rows == before

    def test_buffer_pool_integration(self):
        pool = BufferPool(64)
        t = CinderellaTable(
            CinderellaConfig(max_partition_size=10, weight=0.4), buffer_pool=pool
        )
        for row in product_catalog():
            t.insert(row)
        query = AttributeQuery(("weight",))
        cold = t.execute(query)
        warm = t.execute(query)
        assert warm.stats.pages_read < max(1, cold.stats.pages_read + 1)
        assert pool.hits > 0


class TestTableView:
    def test_view_selects_entities_with_all_columns(self):
        t = CinderellaTable(CinderellaConfig(max_partition_size=10, weight=0.4))
        t.insert({"x_id": 1, "x_val": "a"})
        t.insert({"x_id": 2, "x_val": "b"})
        t.insert({"y_id": 1, "y_other": "z"})
        view = TableView("x", ("x_id", "x_val"), t)
        rows = sorted(view.rows(), key=lambda r: r["x_id"])
        assert rows == [{"x_id": 1, "x_val": "a"}, {"x_id": 2, "x_val": "b"}]
        assert view.last_stats is not None
        assert view.last_stats.partitions_pruned >= 1

    def test_view_plan_prunes_foreign_partitions(self):
        t = CinderellaTable(CinderellaConfig(max_partition_size=10, weight=0.4))
        t.insert({"x_id": 1})
        t.insert({"y_id": 1})
        view = TableView("x", ("x_id",), t)
        plan = view.plan()
        assert len(plan.branch_pids) == 1

    def test_view_requires_columns(self):
        t = CinderellaTable()
        with pytest.raises(ValueError):
            TableView("x", (), t)

    def test_key_columns_override(self):
        t = CinderellaTable(CinderellaConfig(max_partition_size=10, weight=0.4))
        t.insert({"x_id": 1, "x_opt": "present"})
        t.insert({"x_id": 2})
        view = TableView("x", ("x_id", "x_opt"), t, key_columns=("x_id",))
        rows = sorted(view.rows(), key=lambda r: r["x_id"])
        assert rows == [
            {"x_id": 1, "x_opt": "present"},
            {"x_id": 2, "x_opt": None},
        ]
