"""Tests for SQL compilation and execution over both table layouts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CinderellaConfig
from repro.query.snapshot import ShardScope, SnapshotManager
from repro.sql.compiler import compile_predicate, pruning_clauses
from repro.sql.executor import execute
from repro.sql.parser import parse
from repro.table.partitioned import CinderellaTable, unpartitioned_table

CATALOG = [
    {"name": "Canon S120", "aperture": 2.0, "resolution": 12.1, "weight": 198},
    {"name": "Sony A99", "aperture": 1.8, "resolution": 24, "weight": 733},
    {"name": "WD4000", "storage": "4TB", "rotation": 7200, "weight": 150},
    {"name": "WD2000", "storage": "2TB", "rotation": 5400, "weight": 640},
    {"name": "LG TV", "resolution": "Full HD", "screen": 40, "weight": 9800},
]


@pytest.fixture()
def tables():
    cinderella = CinderellaTable(CinderellaConfig(max_partition_size=2, weight=0.3))
    universal = unpartitioned_table()
    for index, row in enumerate(CATALOG):
        cinderella.insert(row, entity_id=index)
        universal.insert(row, entity_id=index)
    return cinderella, universal


class TestPredicateCompilation:
    def compiled(self, sql_where: str):
        return compile_predicate(parse(f"SELECT x FROM t WHERE {sql_where}").where)

    def test_comparison_semantics(self):
        predicate = self.compiled("weight > 500")
        assert predicate({"weight": 733})
        assert not predicate({"weight": 198})
        assert not predicate({})  # NULL comparison is not true

    def test_comparison_with_type_mismatch_is_false(self):
        predicate = self.compiled("weight > 500")
        assert not predicate({"weight": "heavy"})

    def test_equality_with_null_literal_is_never_true(self):
        predicate = self.compiled("weight = NULL")
        assert not predicate({"weight": None})
        assert not predicate({})

    def test_is_null_and_is_not_null(self):
        assert self.compiled("a IS NULL")({})
        assert self.compiled("a IS NULL")({"a": None})
        assert not self.compiled("a IS NULL")({"a": 1})
        assert self.compiled("a IS NOT NULL")({"a": 1})
        assert not self.compiled("a IS NOT NULL")({})

    def test_like(self):
        predicate = self.compiled("name LIKE 'WD%'")
        assert predicate({"name": "WD4000"})
        assert not predicate({"name": "Canon"})
        assert not predicate({})
        assert not predicate({"name": 42})

    def test_not_like(self):
        predicate = self.compiled("name NOT LIKE 'WD%'")
        assert predicate({"name": "Canon"})
        assert not predicate({"name": "WD4000"})
        assert not predicate({})  # NULL NOT LIKE is not true either

    def test_boolean_connectives(self):
        predicate = self.compiled("a = 1 AND (b = 2 OR NOT c = 3)")
        assert predicate({"a": 1, "b": 2, "c": 3})
        assert predicate({"a": 1, "c": 4})
        assert not predicate({"a": 1, "c": 3})


class TestPruningClauses:
    def clauses(self, sql_where: str):
        return pruning_clauses(parse(f"SELECT x FROM t WHERE {sql_where}").where)

    def test_conjunction_collects_requirements(self):
        assert self.clauses("a = 1 AND b IS NOT NULL") == [
            frozenset({"a"}), frozenset({"b"}),
        ]

    def test_disjunction_distributes(self):
        assert self.clauses("a = 1 OR b = 2") == [frozenset({"a", "b"})]

    def test_is_null_disables_pruning(self):
        assert self.clauses("a IS NULL") == []
        assert self.clauses("a = 1 OR b IS NULL") == []

    def test_not_disables_pruning(self):
        assert self.clauses("NOT a = 1") == []

    def test_mixed_nesting(self):
        clauses = self.clauses("(a = 1 OR b = 2) AND c LIKE 'x%'")
        assert frozenset({"a", "b"}) in clauses
        assert frozenset({"c"}) in clauses

    def test_soundness_by_construction(self):
        """Every row satisfying the predicate hits every clause."""
        expression = parse(
            "SELECT x FROM t WHERE (a = 1 OR b = 2) AND (c = 3 OR d IS NOT NULL)"
        ).where
        predicate = compile_predicate(expression)
        clauses = pruning_clauses(expression)
        rows = [
            {"a": 1, "c": 3},
            {"b": 2, "d": 9},
            {"a": 1, "d": None},
            {"a": 2, "c": 3},
        ]
        for row in rows:
            if predicate(row):
                for clause in clauses:
                    assert any(name in row for name in clause)


class TestExecution:
    def test_results_match_between_layouts(self, tables):
        cinderella, universal = tables
        statements = [
            "SELECT name FROM t WHERE aperture IS NOT NULL",
            "SELECT name, weight FROM t WHERE weight > 500 ORDER BY weight",
            "SELECT name FROM t WHERE storage LIKE '%TB' AND rotation > 6000",
            "SELECT name FROM t WHERE aperture IS NULL ORDER BY name",
            "SELECT * FROM t",
            "SELECT name FROM t WHERE resolution IS NOT NULL OR screen > 30",
        ]
        for sql in statements:
            rows_c = execute(sql, cinderella).rows
            rows_u = execute(sql, universal).rows
            assert sorted(map(repr, rows_c)) == sorted(map(repr, rows_u)), sql

    def test_pruning_happens(self, tables):
        cinderella, _ = tables
        result = execute("SELECT name FROM t WHERE rotation > 0", cinderella)
        assert result.stats.partitions_pruned >= 1
        assert result.stats.entities_read < len(CATALOG)
        assert {row["name"] for row in result.rows} == {"WD4000", "WD2000"}

    def test_unknown_attribute_prunes_everything(self, tables):
        cinderella, _ = tables
        result = execute("SELECT name FROM t WHERE ghost = 1", cinderella)
        assert result.rows == []
        assert result.stats.entities_read == 0
        assert result.stats.partitions_pruned == result.stats.partitions_total

    def test_order_by_desc_and_limit(self, tables):
        cinderella, _ = tables
        result = execute(
            "SELECT name, weight FROM t ORDER BY weight DESC LIMIT 2", cinderella
        )
        assert [row["name"] for row in result.rows] == ["LG TV", "Sony A99"]

    def test_order_by_with_nulls_first(self, tables):
        cinderella, _ = tables
        result = execute("SELECT name, aperture FROM t ORDER BY aperture", cinderella)
        apertures = [row["aperture"] for row in result.rows]
        assert apertures[:3] == [None, None, None]
        assert apertures[3:] == [1.8, 2.0]

    def test_select_star_returns_ragged_rows(self, tables):
        cinderella, _ = tables
        result = execute("SELECT * FROM t WHERE rotation IS NOT NULL", cinderella)
        assert all("rotation" in row for row in result.rows)
        assert all("aperture" not in row for row in result.rows)

    def test_mixed_type_order_by_does_not_crash(self, tables):
        cinderella, _ = tables
        # resolution holds floats, ints, and the string 'Full HD'
        result = execute("SELECT resolution FROM t ORDER BY resolution", cinderella)
        assert len(result.rows) == len(CATALOG)

    def test_a_scoped_snapshot_answers_for_its_shards(self, tables):
        cinderella, _ = tables
        sql = "SELECT name FROM t ORDER BY name"
        snapshot = SnapshotManager().publish(cinderella)
        assert [row["name"] for row in execute(sql, snapshot).rows] == sorted(
            row["name"] for row in CATALOG
        )
        even = snapshot.scoped(ShardScope(2, frozenset({0})))
        assert [row["name"] for row in execute(sql, even).rows] == sorted(
            row["name"] for index, row in enumerate(CATALOG) if index % 2 == 0
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**10 - 1), st.integers(1, 2**10 - 1))
    def test_paper_form_equivalence_with_attribute_queries(self, data_seed, qmask):
        """The SQL path and the AttributeQuery path agree on the paper's
        query form."""
        import random

        from repro.query.query import AttributeQuery

        names = [f"a{i}" for i in range(10)]
        rng = random.Random(data_seed)
        table = CinderellaTable(CinderellaConfig(max_partition_size=5, weight=0.4))
        for eid in range(30):
            mask = rng.getrandbits(10)
            table.insert(
                {names[i]: i for i in range(10) if mask >> i & 1} or {"a0": 0},
                entity_id=eid,
            )
        attrs = tuple(names[i] for i in range(10) if qmask >> i & 1)
        query = AttributeQuery(attrs)
        sql = query.sql("t")
        rows_sql = execute(sql, table).rows
        rows_api = table.execute(query).rows
        assert sorted(map(repr, rows_sql)) == sorted(map(repr, rows_api))
