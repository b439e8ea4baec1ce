"""Property test: SQL pruning is sound for *arbitrary* WHERE clauses.

Hypothesis generates random predicate trees (comparisons, LIKE, NULL
tests, AND/OR/NOT nesting) and random data sets; executing on the
partitioned table (with clause-based pruning) must return exactly the
rows of the unpartitioned full scan.  This is the end-to-end guarantee
behind :func:`repro.sql.compiler.pruning_clauses`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CinderellaConfig
from repro.sql.ast import (
    And,
    Comparison,
    LikePredicate,
    Not,
    NullPredicate,
    Or,
    SelectStatement,
)
from repro.sql.executor import execute_statement
from repro.table.partitioned import CinderellaTable, unpartitioned_table

COLUMNS = tuple(f"c{i}" for i in range(6))

comparisons = st.builds(
    Comparison,
    column=st.sampled_from(COLUMNS),
    op=st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
    value=st.integers(min_value=0, max_value=5),
)
likes = st.builds(
    LikePredicate,
    column=st.sampled_from(COLUMNS),
    pattern=st.sampled_from(("v%", "%2", "%v%", "nope%")),
    negated=st.booleans(),
)
null_tests = st.builds(
    NullPredicate,
    column=st.sampled_from(COLUMNS),
    negated=st.booleans(),
)

expressions = st.recursive(
    st.one_of(comparisons, likes, null_tests),
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=8,
)

#: each entity: a 6-bit presence mask + a value selector; values are
#: either the string "v<k>" or the integer k, exercising both predicates
entity_specs = st.lists(
    st.tuples(st.integers(0, 2**6 - 1), st.integers(0, 5), st.booleans()),
    min_size=1,
    max_size=40,
)


def build_row(mask: int, k: int, stringly: bool) -> dict:
    value = f"v{k}" if stringly else k
    return {COLUMNS[i]: value for i in range(6) if mask >> i & 1}


class TestArbitraryPredicatePruningSoundness:
    @settings(max_examples=120, deadline=None)
    @given(entity_specs, expressions)
    def test_partitioned_equals_full_scan(self, specs, where):
        cinderella = CinderellaTable(
            CinderellaConfig(max_partition_size=5, weight=0.4)
        )
        universal = unpartitioned_table()
        for eid, (mask, k, stringly) in enumerate(specs):
            row = build_row(mask, k, stringly) or {"c0": 0}
            cinderella.insert(row, entity_id=eid)
            universal.insert(row, entity_id=eid)
        statement = SelectStatement(columns=COLUMNS, table="t", where=where)
        rows_partitioned = execute_statement(statement, cinderella).rows
        rows_full = execute_statement(statement, universal).rows
        assert sorted(map(repr, rows_partitioned)) == sorted(map(repr, rows_full))

    @settings(max_examples=60, deadline=None)
    @given(entity_specs, expressions)
    def test_pruned_partitions_hold_no_matches(self, specs, where):
        from repro.sql.compiler import compile_predicate

        cinderella = CinderellaTable(
            CinderellaConfig(max_partition_size=4, weight=0.4)
        )
        for eid, (mask, k, stringly) in enumerate(specs):
            cinderella.insert(build_row(mask, k, stringly) or {"c0": 0},
                              entity_id=eid)
        statement = SelectStatement(columns=COLUMNS, table="t", where=where)
        result = execute_statement(statement, cinderella)
        predicate = compile_predicate(where)
        for pid in result.pruned_pids:
            partition = cinderella.catalog.get(pid)
            for eid in partition.entity_ids():
                assert not predicate(cinderella.get(eid).attributes)
