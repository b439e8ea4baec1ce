"""Query layer: attribute queries, pruning, rewriting, caching, execution."""

from repro.query.cache import QueryResultCache
from repro.query.executor import (
    ExecutionResult,
    ExecutionStats,
    execute_uncached_full_scan,
    execute_union_all,
)
from repro.query.pruning import clause_masks, prune, surviving_pids_from_index
from repro.query.query import AttributeQuery
from repro.query.rewrite import UnionAllPlan, rewrite

__all__ = [
    "AttributeQuery",
    "ExecutionResult",
    "ExecutionStats",
    "QueryResultCache",
    "UnionAllPlan",
    "clause_masks",
    "execute_uncached_full_scan",
    "execute_union_all",
    "prune",
    "rewrite",
    "surviving_pids_from_index",
]
