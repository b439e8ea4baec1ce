"""Edge-case tests across subsystem boundaries."""

import pytest

from repro.core.config import CinderellaConfig
from repro.core.sizes import ByteSizeModel
from repro.sql.executor import execute
from repro.storage.snapshot import load_table, save_table
from repro.table.partitioned import CinderellaTable


def build_indexed_table() -> CinderellaTable:
    table = CinderellaTable(
        CinderellaConfig(max_partition_size=4, weight=0.4, use_synopsis_index=True)
    )
    for i in range(12):
        table.insert({"a": i, "b": i} if i % 2 else {"c": i}, entity_id=i)
    return table


class TestSnapshotWithIndex:
    def test_index_rebuilt_on_restore(self, tmp_path):
        table = build_indexed_table()
        path = tmp_path / "snap.json"
        save_table(table, path)
        restored = load_table(path)
        assert restored.catalog.index is not None
        assert restored.check_consistency() == []
        # the restored index must route inserts like the original
        outcome = restored.insert({"a": 99, "b": 99})
        partition = restored.catalog.get(outcome.partition_id)
        assert partition.mask & restored.dictionary.encode_known(["a"])

    def test_restored_table_splits_correctly(self, tmp_path):
        table = build_indexed_table()
        path = tmp_path / "snap.json"
        save_table(table, path)
        restored = load_table(path)
        for i in range(100, 130):
            restored.insert({"a": i, "b": i}, entity_id=i)
        assert restored.partitioner.split_count > 0
        assert restored.check_consistency() == []


class TestByteSizeModelEndToEnd:
    def test_capacity_in_bytes(self):
        table = CinderellaTable(
            CinderellaConfig(
                max_partition_size=300.0, weight=0.4, size_model=ByteSizeModel()
            )
        )
        for i in range(20):
            table.insert({"payload": "x" * 50, "index": i})
        assert table.check_consistency() == []
        for partition in table.catalog:
            if len(partition) > 1:
                assert partition.total_size <= 300.0

    def test_update_changing_byte_size(self):
        table = CinderellaTable(
            CinderellaConfig(
                max_partition_size=500.0, weight=0.4, size_model=ByteSizeModel()
            )
        )
        eid = table.insert({"payload": "small"}).entity_id
        table.insert({"payload": "other"})
        before = table.catalog.get(table.catalog.partition_of(eid)).total_size
        table.update(eid, {"payload": "x" * 100})
        after = table.catalog.get(table.catalog.partition_of(eid)).total_size
        assert after > before
        assert table.check_consistency() == []


class TestSqlEdges:
    @pytest.fixture()
    def table(self):
        table = CinderellaTable(CinderellaConfig(max_partition_size=4, weight=0.4))
        table.insert({"a": 1, "b": "x"})
        table.insert({"a": 2})
        return table

    def test_limit_zero(self, table):
        assert execute("SELECT a FROM t LIMIT 0", table).rows == []

    def test_limit_beyond_result(self, table):
        assert len(execute("SELECT a FROM t LIMIT 99", table).rows) == 2

    def test_order_by_unselected_column_is_allowed(self, table):
        rows = execute("SELECT a FROM t ORDER BY b DESC", table).rows
        assert len(rows) == 2
        assert all(set(row) == {"a"} for row in rows)

    def test_select_never_seen_column_yields_nulls(self, table):
        rows = execute("SELECT ghost FROM t", table).rows
        assert rows == [{"ghost": None}, {"ghost": None}]

    def test_where_true_boolean_literal(self, table):
        table.insert({"flag": True})
        rows = execute("SELECT flag FROM t WHERE flag = TRUE", table).rows
        assert rows == [{"flag": True}]

    def test_empty_table(self):
        table = CinderellaTable()
        result = execute("SELECT a FROM t WHERE a = 1", table)
        assert result.rows == []
        assert result.stats.partitions_total == 0

    def test_sql_against_universal_table(self):
        from repro.table.partitioned import unpartitioned_table

        table = unpartitioned_table()
        table.insert({"a": 1})
        table.insert({"b": 2})
        result = execute("SELECT a FROM t WHERE a IS NOT NULL", table)
        assert result.rows == [{"a": 1}]
        assert result.pruned_pids == ()


class TestDictionaryGrowthAcrossLayers:
    def test_new_attributes_mid_stream(self):
        """Attributes appearing after thousands of inserts still work."""
        table = CinderellaTable(CinderellaConfig(max_partition_size=50, weight=0.3))
        for i in range(100):
            table.insert({"common": i})
        table.insert({"common": 1, "brand_new_attribute": "late"})
        result = execute(
            "SELECT brand_new_attribute FROM t "
            "WHERE brand_new_attribute IS NOT NULL",
            table,
        )
        assert result.rows == [{"brand_new_attribute": "late"}]
        assert result.stats.entities_read < 101  # pruning still exact
